package inner

import "example.com/fixture/internal/deep"

type Options struct {
	Width  int
	height int
	Named
	hidden
	*Ptr
	Label, note string
}

type (
	Named  struct{}
	Ptr    struct{}
	hidden struct{}
)

func (o *Options) Apply(n int) error { return nil }
func (o Options) String() string     { return "" }
func (o *Options) reset()            {}

type Engine = deep.Engine
