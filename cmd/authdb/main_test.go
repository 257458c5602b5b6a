package main

import (
	"strings"
	"testing"
)

func TestRunRejectsPositionalArguments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{nil, 0},
		{[]string{"-paper"}, 0},
		{[]string{"serv"}, 2},
		{[]string{"bench"}, 2},
		{[]string{"-paper", "promote"}, 2},
	} {
		if got := run(tc.args, strings.NewReader(`\quit`+"\n")); got != tc.want {
			t.Errorf("run(%q) = %d, want %d", tc.args, got, tc.want)
		}
	}
}
