// Package goldmodel builds recipe models straight from the synthetic
// corpus's gold annotations, with no trained pipeline in between. Tests
// and benchmarks of the packages that read mined models (similarity,
// index, snapshot, the query server) use it for realistic documents.
package goldmodel

import (
	"recipemodel/internal/core"
	"recipemodel/internal/recipedb"
	"recipemodel/internal/relations"
)

// fromRecipe builds a recipe model from a generated recipe's gold
// annotations: one record per ingredient phrase with every gold
// attribute, and one event per gold relation, in instruction order,
// with its ingredient and utensil arguments.
func fromRecipe(r recipedb.Recipe) *core.RecipeModel {
	m := &core.RecipeModel{Title: r.Title, Cuisine: r.Cuisine}
	for _, p := range r.Ingredients {
		m.Ingredients = append(m.Ingredients, core.IngredientRecord{
			Phrase: p.Text, Name: p.Name, State: p.State, Quantity: p.Quantity,
			Unit: p.Unit, Temp: p.Temp, DryFresh: p.DryFresh, Size: p.Size,
		})
	}
	for step, in := range r.Instructions {
		m.Instructions = append(m.Instructions, in.Text)
		for k, rel := range in.Relations {
			ev := core.Event{Step: step, Relation: relations.Relation{Process: rel.Process, ProcessIndex: k}}
			for i, name := range rel.Ingredients {
				ev.Ingredients = append(ev.Ingredients, relations.Argument{Text: name, Index: i})
			}
			for i, name := range rel.Utensils {
				ev.Utensils = append(ev.Utensils, relations.Argument{Text: name, Index: i})
			}
			m.Events = append(m.Events, ev)
		}
	}
	return m
}

// Corpus generates n gold recipe models from each source site, all of
// one site's before the next's.
func Corpus(n int, seed int64) []*core.RecipeModel {
	var out []*core.RecipeModel
	for _, src := range []recipedb.Source{recipedb.SourceAllRecipes, recipedb.SourceFoodCom} {
		for _, r := range recipedb.NewGenerator(src, seed).Recipes(n) {
			out = append(out, fromRecipe(r))
		}
	}
	return out
}
