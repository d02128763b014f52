// Package cli holds shared plumbing for the command-line tools: a
// compact graph-specification mini-language and rule lookup, so
// cmd/divsim, cmd/divbench and cmd/graphinfo stay thin.
package cli

import (
	"fmt"
	"strconv"
	"strings"

	"div/internal/baseline"
	"div/internal/core"
	"div/internal/graph"
)

// ParseGraph builds a graph from a spec string:
//
//	complete:N          path:N            cycle:N
//	star:N              hypercube:D       torus:R,C
//	grid:R,C            binarytree:N      barbell:C,P
//	regular:N,D         gnp:N,P           ws:N,D,BETA
//	ba:N,M              circulant:N,S1+S2+...
//
// Random families are seed-keyed — the built graph is a pure function
// of (spec, seed) — and retry until connected where applicable.
func ParseGraph(spec string, seed uint64) (*graph.Graph, error) {
	return ParseGraphOpts(spec, seed, graph.BuildOpts{})
}

// ParseGraphOpts is ParseGraph with an explicit assembler
// configuration for the random families (per-phase stats capture).
// Deterministic families ignore opts.
func ParseGraphOpts(spec string, seed uint64, opts graph.BuildOpts) (*graph.Graph, error) {
	name, argStr, _ := strings.Cut(spec, ":")
	args := strings.Split(argStr, ",")
	argInt := func(i int) (int, error) {
		if i >= len(args) || args[i] == "" {
			return 0, fmt.Errorf("cli: %s needs argument %d", name, i+1)
		}
		return strconv.Atoi(strings.TrimSpace(args[i]))
	}
	argFloat := func(i int) (float64, error) {
		if i >= len(args) || args[i] == "" {
			return 0, fmt.Errorf("cli: %s needs argument %d", name, i+1)
		}
		return strconv.ParseFloat(strings.TrimSpace(args[i]), 64)
	}
	switch strings.ToLower(name) {
	case "complete":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return graph.Complete(n), nil
	case "path":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return graph.Path(n), nil
	case "cycle":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return graph.Cycle(n), nil
	case "star":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return graph.Star(n), nil
	case "hypercube":
		d, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return graph.Hypercube(d), nil
	case "torus":
		rows, err := argInt(0)
		if err != nil {
			return nil, err
		}
		cols, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return graph.Torus(rows, cols), nil
	case "grid":
		rows, err := argInt(0)
		if err != nil {
			return nil, err
		}
		cols, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return graph.Grid(rows, cols), nil
	case "binarytree":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return graph.BinaryTree(n), nil
	case "barbell":
		c, err := argInt(0)
		if err != nil {
			return nil, err
		}
		p, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return graph.Barbell(c, p), nil
	case "regular":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		d, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return graph.RandomRegularSeeded(n, d, seed, opts)
	case "gnp":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		p, err := argFloat(1)
		if err != nil {
			return nil, err
		}
		return graph.ConnectedGnpSeeded(n, p, seed, 200, opts)
	case "ws":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		d, err := argInt(1)
		if err != nil {
			return nil, err
		}
		beta, err := argFloat(2)
		if err != nil {
			return nil, err
		}
		return graph.WattsStrogatzSeeded(n, d, beta, seed, opts)
	case "ba":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		m, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return graph.BarabasiAlbertSeeded(n, m, seed, opts)
	case "circulant":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("cli: circulant needs strides, e.g. circulant:12,1+2")
		}
		strides, err := parseStrides(args[1])
		if err != nil {
			return nil, err
		}
		return graph.Circulant(n, strides), nil
	default:
		return nil, fmt.Errorf("cli: unknown graph family %q (try complete:N, regular:N,D, gnp:N,P, …)", name)
	}
}

// parseStrides splits a "+"-separated circulant connection set.
func parseStrides(arg string) ([]int, error) {
	var strides []int
	for _, s := range strings.Split(arg, "+") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("cli: circulant stride %q: %w", s, err)
		}
		strides = append(strides, v)
	}
	return strides, nil
}

// ParseTopology builds an O(1)-state implicit topology from a spec
// string, for runs too large to materialize:
//
//	complete:N          cycle:N           path:N
//	torus:R,C           hypercube:D       circulant:N,S1+S2+...
//	hashedregular:N,D
//
// The families mirror ParseGraph's syntax, so a spec that works with
// -graph works unchanged when routed through the implicit path. The
// hashedregular family is seed-keyed: the same (N, D, seed) names the
// same pseudorandom d-regular multigraph on every call.
func ParseTopology(spec string, seed uint64) (graph.Topology, error) {
	name, argStr, _ := strings.Cut(spec, ":")
	args := strings.Split(argStr, ",")
	argInt := func(i int) (int, error) {
		if i >= len(args) || args[i] == "" {
			return 0, fmt.Errorf("cli: %s needs argument %d", name, i+1)
		}
		return strconv.Atoi(strings.TrimSpace(args[i]))
	}

	switch strings.ToLower(name) {
	case "complete":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return graph.NewImplicitComplete(n)
	case "cycle":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return graph.NewImplicitCycle(n)
	case "path":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return graph.NewImplicitPath(n)
	case "torus":
		rows, err := argInt(0)
		if err != nil {
			return nil, err
		}
		cols, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return graph.NewImplicitTorus(rows, cols)
	case "hypercube":
		d, err := argInt(0)
		if err != nil {
			return nil, err
		}
		return graph.NewImplicitHypercube(d)
	case "circulant":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		if len(args) < 2 {
			return nil, fmt.Errorf("cli: circulant needs strides, e.g. circulant:12,1+2")
		}
		strides, err := parseStrides(args[1])
		if err != nil {
			return nil, err
		}
		return graph.NewImplicitCirculant(n, strides)
	case "hashedregular":
		n, err := argInt(0)
		if err != nil {
			return nil, err
		}
		d, err := argInt(1)
		if err != nil {
			return nil, err
		}
		return graph.NewHashedRegular(n, d, seed)
	default:
		return nil, fmt.Errorf("cli: no implicit backend for graph family %q (try complete:N, cycle:N, path:N, torus:R,C, hypercube:D, circulant:N,S1+S2+…, hashedregular:N,D)", name)
	}
}

// ParseRule returns the update rule named by s.
func ParseRule(s string) (core.Rule, error) {
	switch strings.ToLower(s) {
	case "div", "":
		return core.DIV{}, nil
	case "pull":
		return baseline.Pull{}, nil
	case "median":
		return baseline.Median{}, nil
	case "loadbalance", "lb":
		return baseline.LoadBalance{}, nil
	default:
		if rest, ok := strings.CutPrefix(strings.ToLower(s), "bestof"); ok {
			k, err := strconv.Atoi(rest)
			if err != nil || k < 1 {
				return nil, fmt.Errorf("cli: bad best-of rule %q", s)
			}
			return baseline.BestOfK{K: k}, nil
		}
		return nil, fmt.Errorf("cli: unknown rule %q (div, pull, median, bestofK, loadbalance)", s)
	}
}

// ParseProcess returns the scheduler named by s.
func ParseProcess(s string) (core.Process, error) {
	switch strings.ToLower(s) {
	case "vertex", "":
		return core.VertexProcess, nil
	case "edge":
		return core.EdgeProcess, nil
	default:
		return 0, fmt.Errorf("cli: unknown process %q (vertex, edge)", s)
	}
}
