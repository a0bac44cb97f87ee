#!/usr/bin/env sh
# The tier-1 verification gate is `make check`; the Makefile is its only
# definition. This wrapper keeps the script path working.
cd "$(dirname "$0")/.." && exec make check
