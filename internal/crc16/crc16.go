// Package crc16 implements the CRC16-CCITT (XModem) checksum Redis uses to
// map keys onto its 16384 hash slots, including hash-tag extraction so that
// multi-key operations can be pinned to one slot.
package crc16

// NumSlots is the fixed size of the Redis cluster key space.
const NumSlots = 16384

var table [256]uint16

func init() {
	// polynomial 0x1021 (CRC-CCITT / XModem), as used by Redis cluster.
	const poly = 0x1021
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for j := 0; j < 8; j++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ poly
			} else {
				crc <<= 1
			}
		}
		table[i] = crc
	}
}

// Checksum returns the CRC16-XModem checksum of data.
func Checksum[K ~string | ~[]byte](data K) uint16 {
	var crc uint16
	for i := 0; i < len(data); i++ {
		crc = crc<<8 ^ table[byte(crc>>8)^data[i]]
	}
	return crc
}

// Slot returns the hash slot for key, honouring Redis hash tags: if the key
// contains a "{...}" section with a non-empty interior, only that interior
// is hashed, letting callers co-locate related keys. A key may be a view
// of a command's argument bytes: Slot neither copies nor keeps it.
func Slot[K ~string | ~[]byte](key K) uint16 {
	if tag, ok := hashTag(key); ok {
		key = tag
	}
	return Checksum(key) % NumSlots
}

// hashTag extracts the first {...} segment of key. Redis semantics: only
// the first '{' counts, and the tag must be non-empty.
func hashTag[K ~string | ~[]byte](key K) (K, bool) {
	for i := 0; i < len(key); i++ {
		if key[i] != '{' {
			continue
		}
		for j := i + 1; j < len(key); j++ {
			if key[j] == '}' {
				if j == i+1 {
					return key, false // "{}" — empty tag, hash the whole key
				}
				return key[i+1 : j], true
			}
		}
		return key, false // unterminated '{'
	}
	return key, false
}
