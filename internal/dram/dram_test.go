package dram

import "testing"

func TestDefaults(t *testing.T) {
	if channels != 2 {
		t.Errorf("channels = %d, want 2 (Table 1)", channels)
	}
	if rowMissNs <= rowHitNs {
		t.Error("row miss should be slower than row hit")
	}
}

func TestRowBufferBehavior(t *testing.T) {
	d := New()
	const addr = 0x10000
	first := d.Access(0, addr, false)
	// Same channel, bank, and row immediately after (stride 128 keeps
	// the channel): row hit, faster.
	second := d.Access(first, addr+128, false)
	if second-first >= first-0 {
		t.Errorf("row hit latency %d not faster than miss %d", second-first, first)
	}
	_, hits, _ := d.Stats()
	if hits != 1 {
		t.Errorf("row hits = %d, want 1", hits)
	}
}

func TestChannelQueueing(t *testing.T) {
	d := New()
	// Two concurrent row misses on the same channel: the second waits
	// behind the first one's burst occupancy.
	a := d.Access(0, 0, false)
	b := d.Access(0, 1<<16, false) // same channel and bank, different row
	if b <= a {
		t.Errorf("second miss on a busy channel finished at %d, first at %d", b, a)
	}
}

func TestWritesReturnEarly(t *testing.T) {
	d := New()
	done := d.Access(0, 0x40000, true)
	read := d.Access(0, 0x80000, false)
	if done >= read {
		t.Error("posted write should complete before a fresh read")
	}
}

func TestEnergyAccounting(t *testing.T) {
	d := New()
	d.Access(0, 0, false)
	acc, _, e := d.Stats()
	if acc != 1 || e <= 0 {
		t.Errorf("stats after one access: %d, %v", acc, e)
	}
	if d.BackgroundW() <= 0 {
		t.Error("no background power")
	}
}

func TestDeterminism(t *testing.T) {
	d1, d2 := New(), New()
	addrs := []uint64{0, 1 << 14, 1 << 20, 64, 1 << 14}
	for i, a := range addrs {
		if d1.Access(uint64(i*10), a, i%2 == 0) != d2.Access(uint64(i*10), a, i%2 == 0) {
			t.Fatal("identical access sequences diverged")
		}
	}
}
