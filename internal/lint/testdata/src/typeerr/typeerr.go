// Package typeerr parses but does not type-check: the lint must fail
// on it rather than analyze the partial types and report "ok".
package typeerr

func count() int { return "three" }

func total() int { return count() + undefined }
