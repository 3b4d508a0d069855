package fixture

import (
	"strings"

	"example.com/fixture/internal/inner"
)

type (
	Options = inner.Options
	Engine  = inner.Engine // an alias of an alias, declared in internal/deep
	Builder = strings.Builder
)

type Local struct {
	A     int
	local int
}
