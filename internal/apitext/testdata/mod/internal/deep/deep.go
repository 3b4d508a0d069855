package deep

type Engine struct {
	Workers int
	queue   []int
}

func (e *Engine) Run()  {}
func (e *Engine) stop() {}
