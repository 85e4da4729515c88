// Package operators implements the feature-generation operator framework of
// Section III: unary operators (mathematical transforms, normalisation,
// discretisation), binary operators (arithmetic, logical, GroupByThen*,
// ridge regression) and ternary operators (the conditional a?b:c). New
// operators register through the same interfaces, satisfying the paper's
// requirement that "new operators should be easily added".
//
// Operators are split into a stateless compute step and an optional Fit
// step that learns parameters from training data (bin edges, normalisation
// statistics, group aggregates):
//
//   - Operator is the unfitted form: a name, an arity, and Fit. Fitting
//     binds it to training columns and yields an Applier.
//
//   - Applier is the fitted form, with one evaluation method: TransformInto
//     writes the output column for its input columns into the caller's dst,
//     using only the parameters captured at fit time, so it is safe to apply
//     to unseen data. A one-row batch is real-time inference. Formula names
//     the result.
//
//   - Registry maps operator names to constructors. core.Fit consults it
//     when expanding candidate features, and custom operators added to a
//     registry participate in generation like the built-ins.
//
//   - persist.go round-trips fitted Appliers through JSON (EncodeApplier /
//     DecodeApplier) so a saved core.Pipeline carries every learned
//     parameter. Custom appliers opt in via PersistableApplier.
//
// Nothing outside this package calls TransformInto but core.Apply, which
// clamps NaN and ±Inf to 0 after it: the fit, the transforms, a pass worker,
// the baselines and the experiments all compute a feature through that one
// door, so a feature is the same number wherever it is computed (CI's lint
// job holds the rest of the repository to it). A custom applier therefore
// needs no clamp and no row method:
//
//	type scale struct{ k float64 }
//
//	func (s scale) TransformInto(cols [][]float64, dst []float64) {
//		for i := range dst {
//			dst[i] = s.k * cols[0][i]
//		}
//	}
//
//	func (s scale) Formula(names []string) string {
//		return fmt.Sprintf("%g*%s", s.k, names[0])
//	}
package operators
