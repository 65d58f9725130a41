// Package plagiarism implements winnowing document fingerprinting
// (Schleimer, Wilkerson & Aiken, SIGMOD 2003) — the algorithm behind Moss,
// which the paper uses in Section V.E to verify that a synthetic clone
// shares no similarity with the workload it was generated from. Like Moss
// and JPlag, the fingerprinter is robust to renaming: identifiers and
// literal values are canonicalized before hashing, so similarity reflects
// program structure rather than spelling.
package plagiarism

import (
	"fmt"

	"repro/internal/hlc"
)

// Options configures fingerprinting. The defaults (K=8, W=4) follow common
// Moss practice: matches shorter than K tokens are noise, and any match at
// least K+W-1 tokens long is guaranteed to be caught.
type Options struct {
	K int // k-gram length in tokens
	W int // winnowing window size
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options { return Options{K: 8, W: 4} }

// Fingerprint is a winnowed set of k-gram hashes.
type Fingerprint struct {
	hashes map[uint64]bool
}

// Size returns the number of selected fingerprints.
func (f *Fingerprint) Size() int { return len(f.hashes) }

// File fingerprints an HLC source text.
func File(src string, opts Options) (*Fingerprint, error) {
	toks, err := hlc.Tokenize(src)
	if err != nil {
		return nil, fmt.Errorf("plagiarism: %w", err)
	}
	stream := canonicalize(toks)
	return fingerprint(stream, opts), nil
}

// canonicalize maps the token stream into a rename-resistant alphabet:
// every identifier becomes the same symbol, every numeric literal becomes
// the same symbol, and structural tokens keep their identity.
func canonicalize(toks []hlc.Lexeme) []uint64 {
	const (
		symIdent = 1000
		symInt   = 1001
		symFloat = 1002
	)
	var out []uint64
	for _, t := range toks {
		switch t.Tok {
		case hlc.EOF:
		case hlc.IDENT:
			out = append(out, symIdent)
		case hlc.INTLIT:
			out = append(out, symInt)
		case hlc.FLOATLIT:
			out = append(out, symFloat)
		default:
			out = append(out, uint64(t.Tok))
		}
	}
	return out
}

// fingerprint hashes all k-grams and winnows them: from each window of W
// consecutive hashes the minimum is selected (rightmost on ties), giving a
// position-independent document signature.
func fingerprint(stream []uint64, opts Options) *Fingerprint {
	if opts.K <= 0 {
		opts.K = 8
	}
	if opts.W <= 0 {
		opts.W = 4
	}
	fp := &Fingerprint{hashes: make(map[uint64]bool)}
	if len(stream) < opts.K {
		return fp
	}
	// Rolling polynomial hash over k-grams.
	const base = 1099511628211
	var pow uint64 = 1
	for i := 0; i < opts.K-1; i++ {
		pow *= base
	}
	var h uint64
	var grams []uint64
	for i, v := range stream {
		h = h*base + v
		if i >= opts.K-1 {
			grams = append(grams, h)
			h -= stream[i-opts.K+1] * pow // drop the oldest symbol
		}
	}
	// Winnow.
	n := len(grams)
	if n == 0 {
		return fp
	}
	w := opts.W
	if w > n {
		w = n
	}
	for i := 0; i+w <= n; i++ {
		min := grams[i]
		for j := i + 1; j < i+w; j++ {
			if grams[j] <= min {
				min = grams[j]
			}
		}
		fp.hashes[min] = true
	}
	if len(fp.hashes) == 0 {
		fp.hashes[grams[0]] = true
	}
	return fp
}

// Similarity is a Moss-style report between two documents.
type Similarity struct {
	// Shared is the number of fingerprints present in both documents.
	Shared int
	// AContainment and BContainment are the shared fraction of each
	// document's fingerprints (0..1).
	AContainment float64
	BContainment float64
}

// Score is the symmetric similarity: the larger containment.
func (s Similarity) Score() float64 {
	if s.AContainment > s.BContainment {
		return s.AContainment
	}
	return s.BContainment
}

// Compare computes the similarity between two fingerprints.
func Compare(a, b *Fingerprint) Similarity {
	shared := 0
	for h := range a.hashes {
		if b.hashes[h] {
			shared++
		}
	}
	var sim Similarity
	sim.Shared = shared
	if len(a.hashes) > 0 {
		sim.AContainment = float64(shared) / float64(len(a.hashes))
	}
	if len(b.hashes) > 0 {
		sim.BContainment = float64(shared) / float64(len(b.hashes))
	}
	return sim
}

// CompareSources is the convenience entry point: fingerprint and compare
// two HLC sources, as Moss does with two submitted files.
func CompareSources(srcA, srcB string, opts Options) (Similarity, error) {
	fa, err := File(srcA, opts)
	if err != nil {
		return Similarity{}, err
	}
	fb, err := File(srcB, opts)
	if err != nil {
		return Similarity{}, err
	}
	return Compare(fa, fb), nil
}
