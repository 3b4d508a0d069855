package engine

// Instrs is the number of instructions in the unit's program: one per value
// EmitGo prints, as the row VM's program for the piece has one per value.
func (u GenUnit) Instrs() int { return len(u.prog.vals) }
