package postag

import (
	"strings"
	"testing"
)

func splitCorpus() (train, test []TaggedSentence) {
	for i, s := range Corpus() {
		if i%10 == 0 {
			test = append(test, s)
		} else {
			train = append(train, s)
		}
	}
	return train, test
}

func TestHMMHeldOutAccuracy(t *testing.T) {
	train, test := splitCorpus()
	h := TrainHMM(train)
	var correct, total int
	for _, s := range test {
		got := h.Tag(s.Words)
		for i := range got {
			if got[i] == s.Tags[i] {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.93 {
		t.Fatalf("HMM held-out accuracy = %.4f, want >= 0.93", acc)
	}
}

func TestHMMBasicPhrases(t *testing.T) {
	h := TrainHMM(Corpus())
	got := h.Tag(strings.Fields("3 teaspoons olive oil"))
	if got[0] != "CD" {
		t.Fatalf("number tag = %q", got[0])
	}
	if got[1] != "NNS" {
		t.Fatalf("plural tag = %q", got[1])
	}
}

func TestHMMUnknownWordSuffixBackoff(t *testing.T) {
	h := TrainHMM(Corpus())
	// "kumquats" unseen → NNS via suffix; "flumbled" unseen → VBN-ish
	got := h.Tag([]string{"2", "kumquats"})
	if got[1] != "NNS" {
		t.Fatalf("unknown plural = %q", got[1])
	}
}

func TestHMMPunctuation(t *testing.T) {
	h := TrainHMM(Corpus())
	got := h.Tag(strings.Fields("add the salt , then serve ."))
	if got[3] != "," || got[len(got)-1] != "." {
		t.Fatalf("punct tags = %v", got)
	}
}

func TestHMMEmpty(t *testing.T) {
	h := TrainHMM(Corpus())
	if got := h.Tag(nil); len(got) != 0 {
		t.Fatalf("empty = %v", got)
	}
}

func TestHMMAgreesWithPerceptronOnClusteringVectors(t *testing.T) {
	// The pipeline claim: the POS-vector clustering is robust to the
	// tagger backend. Structurally identical phrases must still get
	// identical vectors under the HMM tagger.
	h := TrainHMM(Corpus())
	a := Vectorize(h.Tag(strings.Fields("3 teaspoons olive oil")))
	b := Vectorize(h.Tag(strings.Fields("2 tablespoons canola oil")))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vectors differ at %s", PTBTags[i])
		}
	}
}

func BenchmarkHMMTag(b *testing.B) {
	h := TrainHMM(Corpus())
	words := []string{"Bring", "the", "water", "to", "a", "boil", "in", "a", "large", "pot", "."}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Tag(words)
	}
}
