package types

import (
	"testing"
	"testing/quick"
)

// TestPageIDKeyRoundTrip: a page's key holds its space in the high 32
// bits and its page number in the low 32, so both can be read back.
func TestPageIDKeyRoundTrip(t *testing.T) {
	prop := func(space uint32, no uint32) bool {
		k := PageID{Space: SpaceID(space), No: PageNo(no)}.Key()
		return uint32(k>>32) == space && uint32(k) == no
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageIDKeyUnique(t *testing.T) {
	a := PageID{Space: 1, No: 2}
	b := PageID{Space: 2, No: 1}
	if a.Key() == b.Key() {
		t.Fatal("distinct page ids share a key")
	}
	if a.String() == "" || a.String() == b.String() {
		t.Fatal("String() not distinguishing")
	}
}

func TestNodeKindString(t *testing.T) {
	kinds := []NodeKind{KindRW, KindRO, KindProxy, KindMemory, KindStorage, NodeKind(99)}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("NodeKind(%d).String() = %q (empty or duplicate)", int(k), s)
		}
		seen[s] = true
	}
}
