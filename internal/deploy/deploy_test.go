package deploy

import (
	"testing"

	"fluxtrack/internal/geom"
	"fluxtrack/internal/rng"
)

func TestGenerateValidation(t *testing.T) {
	src := rng.New(1)
	field := geom.Square(30)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero nodes", Config{Field: field, N: 0, Kind: UniformRandom}},
		{"negative nodes", Config{Field: field, N: -3, Kind: PerturbedGrid}},
		{"unknown kind", Config{Field: field, N: 10, Kind: Kind(99)}},
		{"degenerate field", Config{Field: geom.Rect{}, N: 10, Kind: UniformRandom}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Generate(tt.cfg, src); err == nil {
				t.Error("Generate accepted invalid config")
			}
		})
	}
}

func TestUniformRandomInField(t *testing.T) {
	src := rng.New(2)
	field := geom.NewRect(geom.Pt(5, 5), geom.Pt(35, 20))
	pts, err := Generate(Config{Field: field, N: 500, Kind: UniformRandom}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 500 {
		t.Fatalf("got %d points, want 500", len(pts))
	}
	for _, p := range pts {
		if !field.Contains(p) {
			t.Fatalf("point %v outside field %v", p, field)
		}
	}
}

func TestPerturbedGridCountAndContainment(t *testing.T) {
	src := rng.New(3)
	field := geom.Square(30)
	for _, n := range []int{1, 7, 100, 900, 901, 1800} {
		pts, err := Generate(Config{Field: field, N: n, Kind: PerturbedGrid}, src)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if len(pts) != n {
			t.Fatalf("N=%d: got %d points", n, len(pts))
		}
		for _, p := range pts {
			if !field.Contains(p) {
				t.Fatalf("N=%d: point %v outside field", n, p)
			}
		}
	}
}

func TestPerturbedGridIsSpatiallyUniform(t *testing.T) {
	// Each quadrant of the field should hold roughly a quarter of the nodes.
	src := rng.New(4)
	field := geom.Square(30)
	pts, err := Generate(Config{Field: field, N: 900, Kind: PerturbedGrid}, src)
	if err != nil {
		t.Fatal(err)
	}
	quad := [4]int{}
	for _, p := range pts {
		i := 0
		if p.X > 15 {
			i |= 1
		}
		if p.Y > 15 {
			i |= 2
		}
		quad[i]++
	}
	for i, c := range quad {
		if c < 180 || c > 270 {
			t.Errorf("quadrant %d has %d nodes, want ~225", i, c)
		}
	}
}

func TestPerturbedGridZeroJitterDefaults(t *testing.T) {
	// The grid perturbation (0.4 of a cell) must actually happen, so two
	// seeds must differ.
	field := geom.Square(30)
	a, err := Generate(Config{Field: field, N: 100, Kind: PerturbedGrid}, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Field: field, N: 100, Kind: PerturbedGrid}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > 5 {
		t.Errorf("%d/100 positions identical across seeds; perturbation missing?", same)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	field := geom.Square(30)
	for _, kind := range []Kind{PerturbedGrid, UniformRandom} {
		a, err := Generate(Config{Field: field, N: 200, Kind: kind}, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(Config{Field: field, N: 200, Kind: kind}, rng.New(77))
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: position %d differs across equal seeds", kind, i)
			}
		}
	}
}

func TestKindString(t *testing.T) {
	if PerturbedGrid.String() != "perturbed-grid" {
		t.Errorf("PerturbedGrid.String() = %q", PerturbedGrid.String())
	}
	if UniformRandom.String() != "uniform-random" {
		t.Errorf("UniformRandom.String() = %q", UniformRandom.String())
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind must still render")
	}
}
