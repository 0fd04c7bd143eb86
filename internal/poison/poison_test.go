package poison

import "testing"

func TestFillFollowsTheBuildTag(t *testing.T) {
	b := []byte{1, 2, 3}
	Fill(b)
	for i, v := range b {
		want := byte(i + 1)
		if Enabled {
			want = marker
		}
		if v != want {
			t.Fatalf("byte %d = %#x after Fill, want %#x (Enabled %v)", i, v, want, Enabled)
		}
	}
}
