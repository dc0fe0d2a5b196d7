//go:build neverset

package buildtags

func pick() int { return 2 }
