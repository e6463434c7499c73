// Package reg is the registryhygiene checker's known-bad fixture: a
// closed string-keyed table enumerated both correctly and incorrectly.
package reg

import "sort"

var things = map[string]func(){"good": nil, "other": nil}

// List enumerates the table without sorting.
func List() []string {
	out := make([]string, 0, len(things))
	for name := range things {
		out = append(out, name)
	}
	return out
}

// ListSorted enumerates and sorts: allowed.
func ListSorted() []string {
	out := make([]string, 0, len(things))
	for name := range things {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
