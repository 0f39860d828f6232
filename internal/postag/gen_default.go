//go:build ignore

// gen_default writes default_tagger.gob, the weights postag.Default
// decodes instead of training: postag.TrainDefault's tagger, encoded
// by MarshalBinary. Run it from the repository root with
//
//	go generate ./internal/postag
package main

import (
	"log"
	"os"

	"recipemodel/internal/postag"
)

func main() {
	data, err := postag.TrainDefault().MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("default_tagger.gob", data, 0o644); err != nil {
		log.Fatal(err)
	}
}
