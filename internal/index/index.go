// Package index provides structured retrieval over a corpus of mined
// recipe models — the "exploring recipes" capability RecipeDB itself
// exposes [1]. Because recipes are mined into typed fields, queries
// can target facets the raw text cannot: find recipes that *fry*
// *chicken* in a *skillet*, recipes using a given ingredient in a
// given processing state, or recipes in which one event applies a
// given process to a given ingredient.
package index

import (
	"sort"
	"strings"

	"recipemodel/internal/core"
)

// Index is an inverted index over mined recipe models.
type Index struct {
	models []*core.RecipeModel

	byIngredient map[string][]int
	byProcess    map[string][]int
	byUtensil    map[string][]int
	byCuisine    map[string][]int
	// byPair indexes "process|ingredient" combinations — the
	// many-to-many relations, searchable directly.
	byPair map[string][]int
	// byState indexes "ingredient|state" combinations.
	byState map[string][]int
}

// New builds an index over the models (which are retained by
// reference).
func New(models []*core.RecipeModel) *Index {
	ix := &Index{
		models:       models,
		byIngredient: map[string][]int{},
		byProcess:    map[string][]int{},
		byUtensil:    map[string][]int{},
		byCuisine:    map[string][]int{},
		byPair:       map[string][]int{},
		byState:      map[string][]int{},
	}
	post := func(m map[string][]int, key string, doc int) {
		key = strings.ToLower(strings.TrimSpace(key))
		if key == "" {
			return
		}
		ids := m[key]
		if len(ids) > 0 && ids[len(ids)-1] == doc {
			return
		}
		m[key] = append(ids, doc)
	}
	for doc, m := range models {
		post(ix.byCuisine, m.Cuisine, doc)
		for _, rec := range m.Ingredients {
			post(ix.byIngredient, rec.Name, doc)
			if rec.State != "" {
				post(ix.byState, strings.ToLower(rec.Name)+"|"+strings.ToLower(rec.State), doc)
			}
		}
		for _, e := range m.Events {
			post(ix.byProcess, e.Process, doc)
			for _, u := range e.Utensils {
				post(ix.byUtensil, u.Text, doc)
			}
			for _, a := range e.Ingredients {
				post(ix.byPair, strings.ToLower(e.Process)+"|"+strings.ToLower(a.Text), doc)
			}
		}
	}
	return ix
}

// Len returns the corpus size.
func (ix *Index) Len() int { return len(ix.models) }

// Model returns the model for a document id.
func (ix *Index) Model(doc int) *core.RecipeModel { return ix.models[doc] }

// Query is a conjunctive structured query; empty fields are wildcards.
// The JSON tags are the wire form of the query service's /query/search
// endpoint, which decodes request bodies straight into this type.
type Query struct {
	// Ingredients the recipe must contain (all of them).
	Ingredients []string `json:"ingredients,omitempty"`
	// Processes the event chain must contain (all of them).
	Processes []string `json:"processes,omitempty"`
	// Utensils the recipe must use.
	Utensils []string `json:"utensils,omitempty"`
	// Cuisine restricts the cuisine label.
	Cuisine string `json:"cuisine,omitempty"`
	// Applied restricts to recipes where Applied.Process is applied to
	// Applied.Ingredient in one relation (the many-to-many structure).
	Applied []Pair `json:"applied,omitempty"`
	// InState requires an ingredient mined with a processing state.
	InState []Pair `json:"in_state,omitempty"`
}

// Pair is a (process, ingredient) or (ingredient, state) combination.
type Pair struct {
	A string `json:"a"`
	B string `json:"b"`
}

// Search returns the matching document ids in ascending order.
func (ix *Index) Search(q Query) []int {
	var lists [][]int
	add := func(ids []int, ok bool) bool {
		if !ok {
			return false
		}
		lists = append(lists, ids)
		return true
	}
	get := func(m map[string][]int, key string) ([]int, bool) {
		ids, ok := m[strings.ToLower(strings.TrimSpace(key))]
		return ids, ok
	}
	for _, t := range q.Ingredients {
		if ids, ok := get(ix.byIngredient, t); !add(ids, ok) {
			return nil
		}
	}
	for _, t := range q.Processes {
		if ids, ok := get(ix.byProcess, t); !add(ids, ok) {
			return nil
		}
	}
	for _, t := range q.Utensils {
		if ids, ok := get(ix.byUtensil, t); !add(ids, ok) {
			return nil
		}
	}
	if q.Cuisine != "" {
		if ids, ok := get(ix.byCuisine, q.Cuisine); !add(ids, ok) {
			return nil
		}
	}
	for _, p := range q.Applied {
		key := strings.ToLower(p.A) + "|" + strings.ToLower(p.B)
		if ids, ok := ix.byPair[key]; !add(ids, ok) {
			return nil
		}
	}
	for _, p := range q.InState {
		key := strings.ToLower(p.A) + "|" + strings.ToLower(p.B)
		if ids, ok := ix.byState[key]; !add(ids, ok) {
			return nil
		}
	}
	if len(lists) == 0 {
		// wildcard query: everything.
		out := make([]int, len(ix.models))
		for i := range out {
			out[i] = i
		}
		return out
	}
	return intersectAll(lists)
}

// intersectAll intersects sorted posting lists, smallest first.
func intersectAll(lists [][]int) []int {
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := lists[0]
	for _, l := range lists[1:] {
		out = intersect(out, l)
		if len(out) == 0 {
			return nil
		}
	}
	return append([]int(nil), out...)
}

func intersect(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// Vocabulary returns the distinct keys of a facet, sorted.
func (ix *Index) Vocabulary(facet string) []string {
	var m map[string][]int
	switch facet {
	case "ingredient":
		m = ix.byIngredient
	case "process":
		m = ix.byProcess
	case "utensil":
		m = ix.byUtensil
	case "cuisine":
		m = ix.byCuisine
	default:
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
