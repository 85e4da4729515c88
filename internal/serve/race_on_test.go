//go:build race

package serve

// raceEnabled gates the allocation guards off under the race detector, whose
// shadow memory inflates what the runtime counts as allocated.
const raceEnabled = true
