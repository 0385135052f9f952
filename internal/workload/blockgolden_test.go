package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

// The block digest pins the exact bytes of generated blocks: for every
// profile at two seeds, the SHA-256 of the blocks at a fixed address list.
// A rewrite of genBlock or of the block cache must leave the file
// unchanged. After an intentional change to block contents, regenerate
// with:
//
//	go test -run TestBlockDigestGolden ./internal/workload -update-blocks
var updateBlocks = flag.Bool("update-blocks", false, "regenerate testdata/block_digest.json")

const blockDigestPath = "testdata/block_digest.json"

// blockDigestSeeds are the generator seeds the digest covers.
var blockDigestSeeds = []int64{1, 40503}

// blockDigestAddrs returns the fixed address list: the first blocks of
// the address space, the first blocks of two contexts' private regions
// and of the shared region (where streams start), and pseudo-random
// addresses across 2^51, some not block aligned.
func blockDigestAddrs() []uint64 {
	var addrs []uint64
	for _, base := range []uint64{0, 1 << 40, 2 << 40, sharedBase} {
		for i := uint64(0); i < 64; i++ {
			addrs = append(addrs, base+i*64)
		}
	}
	for i := uint64(0); i < 512; i++ {
		addrs = append(addrs, mix(i*0x2545F4914F6CDD1D)%(1<<51))
	}
	return addrs
}

type blockDigest struct {
	Name   string `json:"name"`
	SHA256 string `json:"sha256"`
}

// TestBlockDigestGolden checks every profile's blocks at two seeds against
// the pinned digests, each block read twice so both the generating miss
// and the cached hit are covered.
func TestBlockDigestGolden(t *testing.T) {
	addrs := blockDigestAddrs()
	var got []blockDigest
	var block [64]byte
	for _, prof := range append(Parallel(), SPEC()...) {
		for _, seed := range blockDigestSeeds {
			g := NewGenerator(prof, seed)
			h := sha256.New()
			for _, a := range addrs {
				g.FillBlockData(a, block[:])
				h.Write(block[:])
			}
			for _, a := range addrs {
				g.FillBlockData(a, block[:])
				h.Write(block[:])
			}
			got = append(got, blockDigest{
				Name:   fmt.Sprintf("%s/seed%d", prof.Name, seed),
				SHA256: hex.EncodeToString(h.Sum(nil)),
			})
		}
	}
	if *updateBlocks {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(blockDigestPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(got), blockDigestPath)
		return
	}
	raw, err := os.ReadFile(blockDigestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-blocks)", err)
	}
	var want []blockDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d digests, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: sha256 %s, golden %s %s", got[i].Name, got[i].SHA256, want[i].Name, want[i].SHA256)
		}
	}
}
