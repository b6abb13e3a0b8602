// Corpus for det:allow annotation validation: malformed annotations,
// and well-formed ones with nothing to suppress, are reported under the
// unsuppressible pseudo-rule "detallow".
package routing

//det:allow maprange // want `det:allow needs a reason`
func noReason() {}

//det:allow bogusrule -- misspelled rule // want `unknown rule "bogusrule"`
func unknownRule() {}

//det:allow -- a reason without any rule // want `names no rule`
func noRule() {}

// A well-formed annotation that outlived the loop it excused would
// pre-approve whatever lands on the next line.
//
//det:allow maprange -- corpus: the loop this excused is gone // want `det:allow maprange suppresses nothing`
func stale() {}

// So would a rule that never applied here riding along with one that
// does: maprange earns its place, seedfold is reported.
func sibling(m map[int]bool) int {
	n := 0
	//det:allow maprange,seedfold -- corpus: exact integer count // want `det:allow seedfold suppresses nothing`
	for range m {
		n++
	}
	return n
}
