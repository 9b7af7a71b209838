// Package poolfix seeds bufpool discipline violations for the pooluse
// analyzer: use-after-Put, double-Put, retention of a recycled buffer,
// and aliasing — plus the defer/reassign/conditional patterns it must
// accept.
package poolfix

import "qsmpi/internal/bufpool"

func UseAfterPut(p *bufpool.Pool) byte {
	b := p.Get(64)
	p.Put(b)
	return b[0] // want `used b after Put`
}

func DoublePut(p *bufpool.Pool) {
	b := p.Get(64)
	p.Put(b)
	p.Put(b) // want `double Put of b`
}

func RetainAfterPut(p *bufpool.Pool, sink *[][]byte) {
	b := p.Get(64)
	p.Put(b)
	*sink = append(*sink, b) // want `retained b after Put`
}

func AliasAfterPut(p *bufpool.Pool) byte {
	b := p.Get(64)
	c := b[:32]
	p.Put(b)
	return c[0] // want `used c after Put`
}

func PutThroughAlias(p *bufpool.Pool) byte {
	b := p.Get(64)
	c := b
	p.Put(c)
	return b[0] // want `used b after Put`
}

// DeferPutOK: the idiomatic shape — Put runs at return, after every use.
func DeferPutOK(p *bufpool.Pool) byte {
	b := p.Get(64)
	defer p.Put(b)
	b[0] = 1
	return b[0]
}

// ReassignRevivesOK: a fresh Get makes the name live again.
func ReassignRevivesOK(p *bufpool.Pool) byte {
	b := p.Get(64)
	p.Put(b)
	b = p.Get(128)
	x := b[0]
	p.Put(b)
	return x
}

// ConditionalPutOK: a Put on one branch must not poison the join.
func ConditionalPutOK(p *bufpool.Pool, flush bool) byte {
	b := p.Get(64)
	if flush {
		p.Put(b)
		b = p.Get(64)
	}
	x := b[0]
	p.Put(b)
	return x
}

// UseBeforePutOK: ordinary get-use-put needs no diagnostic.
func UseBeforePutOK(p *bufpool.Pool) int {
	b := p.Get(256)
	n := copy(b, "header")
	p.Put(b)
	return n
}

// PutOnOneArm: the walk is path-local, so a Put on one arm of an if/else,
// a switch or a loop does not retire the buffer for the code after the
// join.
func PutOnOneArm(p *bufpool.Pool, flush bool, mode int) byte {
	b := p.Get(64)
	if flush {
		p.Put(b)
	} else {
		b[1] = 1
	}
	switch mode {
	case 0:
		p.Put(b)
	case 1:
		p.Put(b)
	}
	for i := 0; i < mode; i++ {
		p.Put(b)
	}
	return b[0]
}

func DeadReadInCondition(p *bufpool.Pool) int {
	b := p.Get(64)
	p.Put(b)
	if b[0] == 0 { // want `used b after Put`
		return 1
	}
	return 0
}

func UseInNestedBlock(p *bufpool.Pool, verbose bool) byte {
	b := p.Get(64)
	p.Put(b)
	if verbose {
		return b[0] // want `used b after Put`
	}
	return 0
}

func AliasChainAfterPut(p *bufpool.Pool) byte {
	b := p.Get(64)
	c := b
	d := c[:8]
	p.Put(b)
	return d[0] // want `used d after Put`
}

func PutThroughAliasChain(p *bufpool.Pool) byte {
	b := p.Get(64)
	c := b
	d := c[:8]
	p.Put(d)
	return b[0] // want `used b after Put`
}

func MultiResultReturn(p *bufpool.Pool) (byte, error) {
	b := p.Get(64)
	p.Put(b)
	return b[0], nil // want `used b after Put`
}

// FuncLitOwnPut: a function literal is a body of its own, checked once
// wherever it appears.
func FuncLitOwnPut(p *bufpool.Pool, run func(func() byte)) {
	run(func() byte {
		b := p.Get(8)
		p.Put(b)
		return b[0] // want `used b after Put`
	})
	f := func() byte {
		b := p.Get(8)
		p.Put(b)
		return b[0] // want `used b after Put`
	}
	run(f)
}

// DeferFuncPutOK: a deferred closure's Put runs at return, after every
// use.
func DeferFuncPutOK(p *bufpool.Pool) byte {
	b := p.Get(64)
	defer func() { p.Put(b) }()
	b[0] = 1
	return b[0]
}

func WriteAfterPut(p *bufpool.Pool) {
	b := p.Get(64)
	p.Put(b)
	b[0] = 1 // want `written b after Put`
}

func AddAssignAfterPut(p *bufpool.Pool) {
	b := p.Get(64)
	p.Put(b)
	b[0] += 1 // want `written b after Put`
}

func WriteThroughAliasAfterPut(p *bufpool.Pool) {
	b := p.Get(64)
	c := b[:8]
	p.Put(b)
	c[0] = 1 // want `written c after Put`
}

// SendAfterPut: a select arm's comm statement runs on that arm's path.
func SendAfterPut(p *bufpool.Pool, ch chan []byte) {
	b := p.Get(64)
	p.Put(b)
	select {
	case ch <- b: // want `used b after Put`
	default:
	}
}
