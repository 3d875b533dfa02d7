package verify

// ReachPath returns a shortest transition path from `from` to any
// state in target (BFS), including both endpoints, and whether one
// exists. A state already in target yields a single-element path.
func ReachPath(k *Kripke, from int, target StateSet) ([]int, bool) {
	if from < 0 || from >= k.NumStates() {
		return nil, false
	}
	if target[from] {
		return []int{from}, true
	}
	prev := make(map[int]int, k.NumStates())
	visited := make([]bool, k.NumStates())
	visited[from] = true
	queue := []int{from}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for _, t := range k.Successors(s) {
			if visited[t] {
				continue
			}
			visited[t] = true
			prev[t] = s
			if target[t] {
				// Reconstruct.
				path := []int{t}
				for cur := t; cur != from; {
					cur = prev[cur]
					path = append(path, cur)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, true
			}
			queue = append(queue, t)
		}
	}
	return nil, false
}

// DiagnoseAG explains why AG(inner) fails: it returns a shortest path
// from an initial state to a reachable state violating inner. The
// second result is false when AG(inner) actually holds.
func DiagnoseAG(k *Kripke, inner CTLFormula) ([]int, bool) {
	sat := CheckCTL(k, inner)
	bad := make(StateSet)
	for s := 0; s < k.NumStates(); s++ {
		if !sat[s] {
			bad[s] = true
		}
	}
	if len(bad) == 0 {
		return nil, false
	}
	var best []int
	for _, init := range k.Initial() {
		if path, ok := ReachPath(k, init, bad); ok {
			if best == nil || len(path) < len(best) {
				best = path
			}
		}
	}
	return best, best != nil
}
