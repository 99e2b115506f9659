package engine

import "github.com/graphpart/graphpart/internal/partition"

// StructureOK exposes the machine-layout check to the external test
// package, which can range over every registered partitioner.
func StructureOK(e *Engine, a *partition.Assignment) error { return e.machinesStructureOK(a) }
