package geom

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 2), Pt(1, 2), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-1, -1), Pt(2, 3), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dist(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
			if got := tt.p.Dist2(tt.q); !almostEqual(got, tt.want*tt.want, 1e-9) {
				t.Errorf("Dist2(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want*tt.want)
			}
		})
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyNaNInf(ax, ay, bx, by) {
			return true
		}
		a, b := Pt(ax, ay), Pt(bx, by)
		return a.Dist(b) == b.Dist(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyNaNInf(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

func TestVecUnit(t *testing.T) {
	tests := []struct {
		name   string
		v      Vec
		wantOK bool
	}{
		{"zero vector", Vec{}, false},
		{"x axis", Vec{DX: 5}, true},
		{"diagonal", Vec{DX: 3, DY: -4}, true},
		{"tiny", Vec{DX: 1e-30, DY: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			u, ok := tt.v.Unit()
			if ok != tt.wantOK {
				t.Fatalf("Unit() ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && !almostEqual(u.Norm(), 1, 1e-12) {
				t.Errorf("Unit() norm = %v, want 1", u.Norm())
			}
		})
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(30, 30), Pt(0, 0)) // reversed corners must normalize
	if r.Min != Pt(0, 0) || r.Max != Pt(30, 30) {
		t.Fatalf("NewRect did not normalize corners: %+v", r)
	}
	if got := r.Width(); got != 30 {
		t.Errorf("Width = %v, want 30", got)
	}
	if got := r.Height(); got != 30 {
		t.Errorf("Height = %v, want 30", got)
	}
	if got := r.Diameter(); !almostEqual(got, 30*math.Sqrt2, 1e-9) {
		t.Errorf("Diameter = %v, want %v", got, 30*math.Sqrt2)
	}
	if got := r.Center(); got != Pt(15, 15) {
		t.Errorf("Center = %v, want (15,15)", got)
	}
}

func TestRectContainsClamp(t *testing.T) {
	r := Square(10)
	tests := []struct {
		p        Point
		contains bool
		clamped  Point
	}{
		{Pt(5, 5), true, Pt(5, 5)},
		{Pt(0, 0), true, Pt(0, 0)},
		{Pt(10, 10), true, Pt(10, 10)},
		{Pt(-1, 5), false, Pt(0, 5)},
		{Pt(11, 12), false, Pt(10, 10)},
		{Pt(5, -3), false, Pt(5, 0)},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.contains {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.contains)
		}
		if got := r.Clamp(tt.p); got != tt.clamped {
			t.Errorf("Clamp(%v) = %v, want %v", tt.p, got, tt.clamped)
		}
	}
}

func TestRayExitAxisDirections(t *testing.T) {
	r := Square(10)
	origin := Pt(3, 4)
	tests := []struct {
		name string
		dir  Vec
		want float64
	}{
		{"east", Vec{DX: 1}, 7},
		{"west", Vec{DX: -1}, 3},
		{"north", Vec{DY: 1}, 6},
		{"south", Vec{DY: -1}, 4},
		{"scaled east", Vec{DX: 10}, 7}, // direction magnitude must not matter
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, ok := r.RayExit(origin, tt.dir)
			if !ok {
				t.Fatal("RayExit reported not ok")
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("RayExit = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRayExitDiagonal(t *testing.T) {
	r := Square(10)
	// From the center along the main diagonal the exit is half the diagonal.
	got, ok := r.RayExit(Pt(5, 5), Vec{DX: 1, DY: 1})
	if !ok {
		t.Fatal("RayExit reported not ok")
	}
	want := 5 * math.Sqrt2
	if !almostEqual(got, want, 1e-12) {
		t.Errorf("RayExit = %v, want %v", got, want)
	}
}

func TestRayExitDegenerate(t *testing.T) {
	r := Square(10)
	if _, ok := r.RayExit(Pt(5, 5), Vec{}); ok {
		t.Error("RayExit with zero direction must fail")
	}
	if _, ok := r.RayExit(Pt(-1, 5), Vec{DX: 1}); ok {
		t.Error("RayExit with outside origin must fail")
	}
	// Origin on the boundary heading outward exits immediately.
	got, ok := r.RayExit(Pt(10, 5), Vec{DX: 1})
	if !ok || got != 0 {
		t.Errorf("RayExit from boundary outward = (%v, %v), want (0, true)", got, ok)
	}
}

// TestRayExitProperty checks that the computed exit point lies on the
// rectangle boundary for random interior origins and directions.
func TestRayExitProperty(t *testing.T) {
	r := Square(30)
	f := func(ox, oy, dx, dy uint16) bool {
		origin := Pt(float64(ox%3000)/100, float64(oy%3000)/100)
		dir := Vec{DX: float64(int(dx) - 32768), DY: float64(int(dy) - 32768)}
		if dir.Norm() == 0 {
			return true
		}
		tExit, ok := r.RayExit(origin, dir)
		if !ok {
			return false
		}
		u, _ := dir.Unit()
		exit := origin.Add(u.Scale(tExit))
		onBoundary := almostEqual(exit.X, 0, 1e-9) || almostEqual(exit.X, 30, 1e-9) ||
			almostEqual(exit.Y, 0, 1e-9) || almostEqual(exit.Y, 30, 1e-9)
		return onBoundary && r.Contains(Pt(r.Clamp(exit).X, r.Clamp(exit).Y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoundaryDistThrough(t *testing.T) {
	r := Square(30)
	// Sink at (10,15); node at (20,15): the ray continues east and exits at
	// x=30, so l = 20.
	l, ok := r.BoundaryDistThrough(Pt(10, 15), Pt(20, 15))
	if !ok {
		t.Fatal("BoundaryDistThrough reported not ok")
	}
	if !almostEqual(l, 20, 1e-12) {
		t.Errorf("l = %v, want 20", l)
	}
	// Same point has no direction.
	if _, ok := r.BoundaryDistThrough(Pt(10, 15), Pt(10, 15)); ok {
		t.Error("BoundaryDistThrough with coincident points must fail")
	}
}

// TestBoundaryDistAtLeastNodeDist verifies l >= d for nodes inside the field,
// which the flux model relies on (flux must be non-negative).
func TestBoundaryDistAtLeastNodeDist(t *testing.T) {
	r := Square(30)
	f := func(sx, sy, nx, ny uint16) bool {
		sink := Pt(float64(sx%3000)/100, float64(sy%3000)/100)
		node := Pt(float64(nx%3000)/100, float64(ny%3000)/100)
		if sink == node {
			return true
		}
		l, ok := r.BoundaryDistThrough(sink, node)
		if !ok {
			return false
		}
		return l >= sink.Dist(node)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0 = %v, want %v", got, a)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp t=1 = %v, want %v", got, b)
	}
	if got := Lerp(a, b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp t=0.5 = %v, want (5,10)", got)
	}
}

func TestMatchGreedy(t *testing.T) {
	truths := []Point{Pt(9, 9), Pt(1, 1), Pt(5, 0)}
	for _, tc := range []struct {
		name      string
		estimates []Point
		want      []int
	}{
		{"nearest each", []Point{Pt(0, 0), Pt(10, 10)}, []int{1, 0}},
		// Greedy, not optimal: the first estimate takes (1, 1), leaving the
		// second the farther (5, 0).
		{"first come first served", []Point{Pt(2, 1), Pt(1, 0)}, []int{1, 2}},
		{"tie takes the lowest index", []Point{Pt(4, 6)}, []int{0}},
		{"extra estimates find no truth", []Point{Pt(0, 0), Pt(0, 0), Pt(0, 0), Pt(0, 0)}, []int{1, 2, 0}},
		{"no estimates", nil, []int{}},
	} {
		if got := MatchGreedy(tc.estimates, truths); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := MatchGreedy([]Point{Pt(0, 0)}, nil); len(got) != 0 {
		t.Errorf("no truths: got %v", got)
	}
}
