// Package docscheck has only tests. One fails when a registered metric is
// missing from docs/OPERATIONS.md; TestNoDeadExports fails when an exported
// name under internal/ has no non-test use and deadexports.txt does not
// list it with a reason ("fixture: <pkg> tests", "paper figure" or "owned
// by ROADMAP item N"), or lists a name that is used again or gone.
package docscheck
