package cluster_test

import (
	"fmt"

	"repro/internal/cluster"
)

// ExampleSimulate shows EASY backfilling on a toy cluster: the short
// narrow job jumps a blocked head without delaying it.
func ExampleSimulate() {
	job := func(id int, arrival float64, width int, requested float64) cluster.Job {
		return cluster.Job{ID: id, Arrival: arrival, Width: width, Actual: requested, Policy: []float64{requested}}
	}
	jobs := []cluster.Job{
		job(0, 0, 3, 10), // fills 3 of 4 nodes
		job(1, 1, 4, 10), // blocked head
		job(2, 2, 1, 3),  // backfills
	}
	res, _ := cluster.Simulate(cluster.Config{Nodes: cluster.UnitNodes(4), Backfill: cluster.BackfillEASY}, jobs)
	for _, r := range res {
		fmt.Printf("job %d: start %.0f backfilled=%v\n", r.ID, r.Start, r.Backfilled)
	}
	// Output:
	// job 0: start 0 backfilled=false
	// job 1: start 10 backfilled=false
	// job 2: start 2 backfilled=true
}
