//go:build race

package main

func init() { raceSlowdown = 10 }
