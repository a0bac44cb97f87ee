package cluster

import (
	"context"
	"strings"
	"testing"
)

// TestClusterInfoPerAZLines checks that CLUSTER INFO surfaces each zone's
// transaction-log health: ack counts and ack-latency percentiles, one
// block per AZ.
func TestClusterInfoPerAZLines(t *testing.T) {
	c := testCluster(t, 1, 0)
	cl := c.Client()
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if v, err := cl.Do(ctx, "SET", "k"+itoa(i), "v"); err != nil || v.IsError() {
			t.Fatalf("SET: %v %v", v, err)
		}
	}

	info := clusterCmd(c, "CLUSTER", "INFO").Text()
	for az := 0; az < 3; az++ {
		for _, field := range []string{"_name:", "_acks_served:", "_acks_dropped:", "_ack_p50_usec:", "_ack_p99_usec:", "_ack_max_usec:"} {
			want := "az" + itoa(az) + field
			if !strings.Contains(info, want) {
				t.Errorf("CLUSTER INFO missing %q:\n%s", want, info)
			}
		}
	}
	// Writes committed through the log, so at least one zone served acks.
	if !strings.Contains(info, "_acks_served:") || strings.Count(info, "_acks_served:0\r\n") == 3 {
		t.Fatalf("no zone served any acks after writes:\n%s", info)
	}
	// Workloop pressure aggregates (totals across every node).
	for _, field := range []string{"cluster_exec_queue_depth_total:", "cluster_exec_queue_depth_max:"} {
		if !strings.Contains(info, field) {
			t.Errorf("CLUSTER INFO missing %q:\n%s", field, info)
		}
	}
}
