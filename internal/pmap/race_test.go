//go:build race

package pmap

func init() { raceBuild = true }
