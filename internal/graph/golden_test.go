package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// csrHash is the FNV-1a hash of a graph's CSR arrays: offsets as
// little-endian int64s, then adj as little-endian int32s.
func csrHash(g *Graph) string {
	h := fnv.New64a()
	_ = binary.Write(h, binary.LittleEndian, g.offsets)
	_ = binary.Write(h, binary.LittleEndian, g.adj)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestSeededBuildersGolden pins the exact bytes every random builder
// produces, at two sizes and two seeds per family, plus Materialize of
// two implicit families. The larger size spans several thousand rows,
// so any change to how construction walks its rows, counts, scatters
// or sorts shows here as a moved hash, not only as a law-test drift.
// A deliberate change to a builder's law or seeding must update the
// table and say so.
func TestSeededBuildersGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Graph, error)
		want  string
	}{
		{"gnp(500,0.02)/seed=1", func() (*Graph, error) { return GnpSeeded(500, 0.02, 1, BuildOpts{}) }, "d57a002669dbdc86"},
		{"gnp(500,0.02)/seed=2", func() (*Graph, error) { return GnpSeeded(500, 0.02, 2, BuildOpts{}) }, "ae422bc83fa44366"},
		{"gnp(5000,0.002)/seed=1", func() (*Graph, error) { return GnpSeeded(5000, 0.002, 1, BuildOpts{}) }, "7ba66c649a14a1ee"},
		{"gnp(5000,0.002)/seed=2", func() (*Graph, error) { return GnpSeeded(5000, 0.002, 2, BuildOpts{}) }, "12f2c55a3e188ce1"},
		{"connectedGnp(300,0.03)/seed=1", func() (*Graph, error) { return ConnectedGnpSeeded(300, 0.03, 1, 200, BuildOpts{}) }, "a466249e1d489bb6"},
		{"connectedGnp(300,0.03)/seed=2", func() (*Graph, error) { return ConnectedGnpSeeded(300, 0.03, 2, 200, BuildOpts{}) }, "547b210b187aeb75"},
		{"connectedGnp(3000,0.004)/seed=1", func() (*Graph, error) { return ConnectedGnpSeeded(3000, 0.004, 1, 200, BuildOpts{}) }, "63d24329f95788fc"},
		{"connectedGnp(3000,0.004)/seed=2", func() (*Graph, error) { return ConnectedGnpSeeded(3000, 0.004, 2, 200, BuildOpts{}) }, "a94ad597be0cba7f"},
		{"randomRegular(400,6)/seed=1", func() (*Graph, error) { return RandomRegularSeeded(400, 6, 1, BuildOpts{}) }, "525e943deba269ab"},
		{"randomRegular(400,6)/seed=2", func() (*Graph, error) { return RandomRegularSeeded(400, 6, 2, BuildOpts{}) }, "2ddfa8e5a0d419df"},
		{"randomRegular(5000,8)/seed=1", func() (*Graph, error) { return RandomRegularSeeded(5000, 8, 1, BuildOpts{}) }, "fa021c89abf60e0d"},
		{"randomRegular(5000,8)/seed=2", func() (*Graph, error) { return RandomRegularSeeded(5000, 8, 2, BuildOpts{}) }, "7da7f9c95654d9f1"},
		{"wattsStrogatz(400,6,0)/seed=1", func() (*Graph, error) { return WattsStrogatzSeeded(400, 6, 0, 1, BuildOpts{}) }, "ab3ad0581e757d57"},
		{"wattsStrogatz(400,6,0)/seed=2", func() (*Graph, error) { return WattsStrogatzSeeded(400, 6, 0, 2, BuildOpts{}) }, "ab3ad0581e757d57"},
		{"wattsStrogatz(5000,8,0)/seed=1", func() (*Graph, error) { return WattsStrogatzSeeded(5000, 8, 0, 1, BuildOpts{}) }, "3a25b2de1ecae3e1"},
		{"wattsStrogatz(5000,8,0)/seed=2", func() (*Graph, error) { return WattsStrogatzSeeded(5000, 8, 0, 2, BuildOpts{}) }, "3a25b2de1ecae3e1"},
		{"wattsStrogatz(400,6,0.3)/seed=1", func() (*Graph, error) { return WattsStrogatzSeeded(400, 6, 0.3, 1, BuildOpts{}) }, "4d4a90e046f80087"},
		{"wattsStrogatz(400,6,0.3)/seed=2", func() (*Graph, error) { return WattsStrogatzSeeded(400, 6, 0.3, 2, BuildOpts{}) }, "7a9a93d1c2f1a90a"},
		{"wattsStrogatz(5000,8,0.3)/seed=1", func() (*Graph, error) { return WattsStrogatzSeeded(5000, 8, 0.3, 1, BuildOpts{}) }, "f238d090c923052b"},
		{"wattsStrogatz(5000,8,0.3)/seed=2", func() (*Graph, error) { return WattsStrogatzSeeded(5000, 8, 0.3, 2, BuildOpts{}) }, "8c1f34775e505d8d"},
		{"barabasiAlbert(400,3)/seed=1", func() (*Graph, error) { return BarabasiAlbertSeeded(400, 3, 1, BuildOpts{}) }, "23bbfeb3e95a90a0"},
		{"barabasiAlbert(400,3)/seed=2", func() (*Graph, error) { return BarabasiAlbertSeeded(400, 3, 2, BuildOpts{}) }, "2101b1b432b62ed0"},
		{"barabasiAlbert(5000,4)/seed=1", func() (*Graph, error) { return BarabasiAlbertSeeded(5000, 4, 1, BuildOpts{}) }, "160ae8f78e19319f"},
		{"barabasiAlbert(5000,4)/seed=2", func() (*Graph, error) { return BarabasiAlbertSeeded(5000, 4, 2, BuildOpts{}) }, "fa8e40d8b634cef4"},
		{"materialize(torus(20x25))", func() (*Graph, error) { return materializeOrErr(NewImplicitTorus(20, 25)) }, "9b5ed5503a128d58"},
		{"materialize(torus(60x90))", func() (*Graph, error) { return materializeOrErr(NewImplicitTorus(60, 90)) }, "416a55a84af4f3b1"},
		{"materialize(circulant(500,[1,3,7]))", func() (*Graph, error) {
			return materializeOrErr(NewImplicitCirculant(500, []int{1, 3, 7}))
		}, "c897d4ab11d924b4"},
		{"materialize(circulant(5000,[2,5,11,40]))", func() (*Graph, error) {
			return materializeOrErr(NewImplicitCirculant(5000, []int{2, 5, 11, 40}))
		}, "91a894bf6aabcc51"},
	}
	for _, tc := range cases {
		g, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := csrHash(g); got != tc.want {
			t.Errorf("%s: n=%d m=%d hash %s, want %s", tc.name, g.N(), g.M(), got, tc.want)
		}
	}
}

// materializeOrErr materializes an implicit family's constructor result.
func materializeOrErr[T Topology](t T, err error) (*Graph, error) {
	if err != nil {
		return nil, err
	}
	return Materialize(t)
}
