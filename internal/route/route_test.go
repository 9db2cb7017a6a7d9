package route

import "testing"

// TestFollowersSkipSharedAddress pins the replica walk when one node leads
// several slots: successors on the leader's own address (or on an address
// already chosen) hold no independent copy and are skipped.
func TestFollowersSkipSharedAddress(t *testing.T) {
	r, err := NewRing([]Member{
		{Slot: "alpha", Addr: "http://a"}, {Slot: "beta", Addr: "http://a"},
		{Slot: "gamma", Addr: "http://b"}, {Slot: "delta", Addr: "http://c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []string{"alpha", "beta", "gamma", "delta"} {
		fs := r.Followers(slot, 3)
		seen := map[string]bool{r.Addr(slot): true}
		for _, f := range fs {
			if seen[r.Addr(f)] {
				t.Fatalf("Followers(%s) = %v: address %s repeats", slot, fs, r.Addr(f))
			}
			seen[r.Addr(f)] = true
		}
		if len(fs) != 2 {
			t.Fatalf("Followers(%s, 3) = %v, want the 2 other addresses", slot, fs)
		}
	}
}
