package ioctlan

// The backward program slicer: given a handler body, keep exactly the
// statements that are memory operations or that (transitively) feed the
// address/size arguments of one — the classic slicing criterion of
// Weiser's algorithm, applied the way the paper's Clang tool applies it.

// Slice reduces a handler body to its memory-operation slice.
func Slice(body []Stmt) []Stmt {
	needed := map[string]bool{} // locals the slice depends on
	// Two passes handle use-before-def ordering across loop iterations:
	// first discover all needed locals, then emit.
	for changed := true; changed; {
		changed = sliceNeeds(body, needed)
	}
	return sliceEmit(body, needed)
}

// sliceNeeds accumulates the set of locals that feed memory operations,
// returning whether anything new was discovered.
func sliceNeeds(body []Stmt, needed map[string]bool) bool {
	changed := false
	add := func(e Expr) {
		for _, name := range exprDeps(e) {
			if !needed[name] {
				needed[name] = true
				changed = true
			}
		}
	}
	var walk func([]Stmt, []Expr)
	walk = func(stmts []Stmt, conds []Expr) {
		for _, s := range stmts {
			switch s := s.(type) {
			case CopyFromUser:
				add(s.Src)
				add(s.Size)
				for _, c := range conds {
					add(c)
				}
			case CopyToUser:
				add(s.Dst)
				add(s.Size)
				for _, c := range conds {
					add(c)
				}
			case Let:
				if needed[s.Name] {
					add(s.Val)
				}
			case For:
				inner := conds
				if bodyHasMemOp(s.Body) || bodyFeedsNeeded(s.Body, needed) {
					add(s.Count)
					inner = append(append([]Expr(nil), conds...), s.Count)
				}
				walk(s.Body, inner)
			case If:
				if bodyHasMemOp(s.Then) || bodyHasMemOp(s.Else) ||
					bodyFeedsNeeded(s.Then, needed) || bodyFeedsNeeded(s.Else, needed) {
					add(s.Cond)
				}
				inner := append(append([]Expr(nil), conds...), s.Cond)
				walk(s.Then, inner)
				walk(s.Else, inner)
			}
		}
	}
	walk(body, nil)
	// Buffers read through LoadField need their defining CopyFromUser; the
	// exprDeps above already return the buffer name, and the CopyFromUser
	// case keeps any copy whose Dst is needed:
	var keepDefs func([]Stmt)
	keepDefs = func(stmts []Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case CopyFromUser:
				if needed[s.Dst] {
					add(s.Src)
					add(s.Size)
				}
			case For:
				keepDefs(s.Body)
			case If:
				keepDefs(s.Then)
				keepDefs(s.Else)
			}
		}
	}
	keepDefs(body)
	return changed
}

func sliceEmit(body []Stmt, needed map[string]bool) []Stmt {
	var out []Stmt
	for _, s := range body {
		switch s := s.(type) {
		case CopyFromUser, CopyToUser:
			out = append(out, s)
		case Let:
			if needed[s.Name] {
				out = append(out, s)
			}
		case For:
			inner := sliceEmit(s.Body, needed)
			if len(inner) > 0 {
				out = append(out, For{Var: s.Var, Count: s.Count, Body: inner})
			}
		case If:
			thenS := sliceEmit(s.Then, needed)
			elseS := sliceEmit(s.Else, needed)
			if len(thenS) > 0 || len(elseS) > 0 {
				out = append(out, If{Cond: s.Cond, Then: thenS, Else: elseS})
			}
		case DriverWork:
			// sliced away
		}
	}
	return out
}

func bodyHasMemOp(stmts []Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case CopyFromUser, CopyToUser:
			return true
		case For:
			if bodyHasMemOp(s.Body) {
				return true
			}
		case If:
			if bodyHasMemOp(s.Then) || bodyHasMemOp(s.Else) {
				return true
			}
		}
	}
	return false
}

func bodyFeedsNeeded(stmts []Stmt, needed map[string]bool) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case Let:
			if needed[s.Name] {
				return true
			}
		case CopyFromUser:
			if needed[s.Dst] {
				return true
			}
		case For:
			if needed[s.Var] || bodyFeedsNeeded(s.Body, needed) {
				return true
			}
		case If:
			if bodyFeedsNeeded(s.Then, needed) || bodyFeedsNeeded(s.Else, needed) {
				return true
			}
		}
	}
	return false
}

// exprDeps returns the local names (including LoadField source buffers) an
// expression reads.
func exprDeps(e Expr) []string {
	switch e := e.(type) {
	case Local:
		return []string{string(e)}
	case LoadField:
		return []string{e.Buf}
	case Bin:
		return append(exprDeps(e.L), exprDeps(e.R)...)
	default:
		return nil
	}
}
