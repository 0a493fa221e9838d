package inplace

import "inplace/internal/tune"

// storeOOCWisdom and lookupStoreWisdom reach one section of the process
// wisdom table each, through the same consult and record paths the
// planners and tuners use.

func storeOOCWisdom(k tune.OOCKey, d tune.OOCDecision) { recordWisdom(&wisdomTab.t.OOC, k, d) }

func lookupStoreWisdom(rows, fields, elemSize int) (tune.StoreDecision, bool) {
	d, ok, _ := consultWisdom(WisdomAuto, &wisdomTab.t.TileStore, storeWisdomKey(rows, fields, elemSize))
	return d, ok
}
