package core

import (
	"fmt"

	"quarc/internal/routing"
	"quarc/internal/topology"
)

// MeanDistance returns the average unicast hop count (network link
// crossings) over all ordered source/destination pairs, read from the
// router's route table. This is the D̄ entering the zero-load latency
// D̄ + 1 + msg (the +1 is the injection-channel crossing).
func MeanDistance(rt routing.Router) (float64, error) {
	routes, err := routing.NewTable(rt, routing.MulticastSet{})
	if err != nil {
		return 0, err
	}
	n := routes.Graph().Nodes()
	var sum float64
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			p := routes.Unicast(topology.NodeID(src), topology.NodeID(dst))[0].Path
			sum += float64(len(p) - 2) // exclude injection and ejection
		}
	}
	return sum / float64(n*(n-1)), nil
}

// ZeroLoadUnicastLatency returns the exact average unicast latency at
// vanishing load: mean distance + 1 (injection) + message drain.
func ZeroLoadUnicastLatency(rt routing.Router, msgLen int) (float64, error) {
	d, err := MeanDistance(rt)
	if err != nil {
		return 0, err
	}
	return d + 1 + float64(msgLen), nil
}

// QuarcMeanDistance is the closed form of the Quarc's average unicast
// distance. With quadrant size Q = N/4 the distance sums per quadrant are
// Q(Q+1)/2 for L and R, Q(Q+1)/2 for the cross-left quadrant, and
// Q(Q+1)/2 - 1 for cross-right (one fewer node), giving
//
//	D̄ = (2Q(Q+1) - 1) / (N - 1).
//
// The Spidergon's Across-First routing yields exactly the same value —
// the Quarc changes the port structure, not the shortest-path distances.
func QuarcMeanDistance(n int) (float64, error) {
	if n < 8 || n%4 != 0 {
		return 0, fmt.Errorf("core: invalid quarc size %d", n)
	}
	q := float64(n / 4)
	return (2*q*(q+1) - 1) / float64(n-1), nil
}

// HypercubeMeanDistance is the closed form of the hypercube's average
// e-cube distance: the mean Hamming distance to a random other node,
// d·2^(d-1) / (2^d - 1).
func HypercubeMeanDistance(dims int) (float64, error) {
	if dims < 1 || dims > 16 {
		return 0, fmt.Errorf("core: invalid hypercube dims %d", dims)
	}
	n := float64(int(1) << uint(dims))
	return float64(dims) * n / 2 / (n - 1), nil
}

// QuarcZeroLoadBroadcastLatency is the exact zero-load latency of a Quarc
// broadcast: the four quadrant branches are independent, each is N/4
// network hops deep plus the injection crossing, and the slowest branch
// defines completion: (N/4 + 1) + msg.
func QuarcZeroLoadBroadcastLatency(n, msgLen int) (float64, error) {
	if n < 8 || n%4 != 0 {
		return 0, fmt.Errorf("core: invalid quarc size %d", n)
	}
	return float64(n/4+1) + float64(msgLen), nil
}

// SpidergonZeroLoadBroadcastLatency is the zero-load latency of the
// Spidergon's broadcast-by-consecutive-unicast: the k-th of the N-1
// unicasts leaves after k-1 injection holding times of msg cycles each,
// and the slowest completion over all k defines the broadcast. At zero
// load unicast k to a destination at distance d_k completes at
// (k-1)·msg + (d_k + 1) + msg; with distances bounded by the diameter the
// last transmission dominates: (N-2)·msg + msg + d + 1 where d is the
// distance of the final destination in transmission order (position
// order, i.e. relative position N-1, at distance 1), giving
// (N-1)·msg + 2.
func SpidergonZeroLoadBroadcastLatency(n, msgLen int) (float64, error) {
	if n < 6 || n%2 != 0 {
		return 0, fmt.Errorf("core: invalid spidergon size %d", n)
	}
	return float64(n-1)*float64(msgLen) + 2, nil
}
