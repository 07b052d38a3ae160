package kernel

// CreatedLocks counts the shared locks k has created so far.
func (k *Kernel) CreatedLocks() int {
	n := 0
	for _, l := range k.locks {
		if l != nil {
			n++
		}
	}
	return n
}
