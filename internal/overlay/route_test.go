package overlay

import "testing"

// sumInOrder adds xs left to right, the order Route accumulates latency in.
func sumInOrder(xs ...float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// TestRoute drives the shared routing loop with hand-written next-hop rules
// over five slots on hosts 0, 10, 30, 60, 100, the last one dead.
func TestRoute(t *testing.T) {
	o := lineOverlay(t, []int{0, 10, 30, 60, 100})
	if err := o.RemoveSlot(4); err != nil {
		t.Fatal(err)
	}
	forward := func(cur int) int { return cur + 1 }
	cases := []struct {
		name               string
		src, owner, maxHop int
		next               func(int) int
		want               LookupResult
		wantErr            bool
	}{
		{name: "self lookup is free", src: 2, owner: 2, maxHop: 0,
			next: func(int) int { panic("next called at the owner") },
			want: LookupResult{Owner: 2}},
		{name: "forward", src: 0, owner: 3, maxHop: 3, next: forward,
			want: LookupResult{Owner: 3, Hops: 3, Latency: 60}},
		{name: "dead source", src: 4, owner: 0, maxHop: 9, next: forward, wantErr: true},
		{name: "stuck rule", src: 0, owner: 3, maxHop: 9, wantErr: true,
			next: func(cur int) int { return min(cur+1, 1) },
			want: LookupResult{Owner: 3, Hops: 1, Latency: 10}},
		{name: "cyclic rule exceeds the hop bound", src: 0, owner: 3, maxHop: 4, wantErr: true,
			next: func(cur int) int { return (cur + 1) % 3 },
			want: LookupResult{Owner: 3, Hops: 5, Latency: sumInOrder(10, 20, 30, 10, 20)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := o.Route(c.src, c.owner, c.maxHop, c.next)
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, want error %v", err, c.wantErr)
			}
			if got != c.want {
				t.Fatalf("got %+v, want %+v", got, c.want)
			}
		})
	}
}
