//go:build !neverset

// Package buildtags declares one function in files under exclusive
// build constraints; the loader must type-check only the selected one.
package buildtags

func pick() int { return 1 }
