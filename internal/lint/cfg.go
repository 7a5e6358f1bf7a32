package lint

// cfg.go builds the per-function control-flow graphs that back the
// flow-sensitive analyzers. The graph is deliberately small: blocks hold
// statements and branch conditions in execution order, edges optionally
// carry the condition under which they are taken (so analyzers can refine
// facts across `err != nil` branches), and loop heads / select heads are
// indexed so cycle checks can classify the loops forming a strongly
// connected component. Function literals are *not* inlined — each literal
// is a separate scope with its own CFG (see funcScopes), and the
// enclosing function sees only the literal expression itself. The program
// builder in flow.go builds each body's graph exactly once.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cfgBlock is one straight-line run of nodes. nodes contains simple
// statements and the condition expressions of branches, in the order
// they execute; compound statements (if/for/switch/select bodies) live
// in successor blocks, never inside nodes.
type cfgBlock struct {
	index      int
	nodes      []ast.Node
	succs      []cfgEdge
	preds      []*cfgBlock
	selectCase bool        // entry block of a select communication clause
	calls      []*callSite // the block's calls in evaluation order (filled by newProgram)
}

// cfgEdge is a directed edge; when cond is non-nil the edge is taken
// exactly when cond evaluates to !negate.
type cfgEdge struct {
	to     *cfgBlock
	cond   ast.Expr
	negate bool
}

// funcCFG is the control-flow graph of one function body.
type funcCFG struct {
	blocks    []*cfgBlock
	entry     *cfgBlock
	exit      *cfgBlock
	fallsOff  *cfgBlock                     // block reaching the closing brace, nil if none
	loopHeads map[ast.Stmt]*cfgBlock        // for/range statement -> head block
	selects   map[*ast.SelectStmt]*cfgBlock // select statement -> head block
}

func (g *funcCFG) newBlock() *cfgBlock {
	b := &cfgBlock{index: len(g.blocks)}
	g.blocks = append(g.blocks, b)
	return b
}

// cfgBuilder carries the break/continue/goto context during construction.
type cfgBuilder struct {
	g            *funcCFG
	breaks       []cfgTarget
	continues    []cfgTarget
	labels       map[string]*cfgBlock
	gotos        []pendingGoto
	pendingLabel string // label attached to the statement about to build
}

type cfgTarget struct {
	label string
	block *cfgBlock
}

type pendingGoto struct {
	from  *cfgBlock
	label string
}

// buildCFG constructs the graph for one function body.
func buildCFG(body *ast.BlockStmt) *funcCFG {
	g := &funcCFG{
		loopHeads: map[ast.Stmt]*cfgBlock{},
		selects:   map[*ast.SelectStmt]*cfgBlock{},
	}
	b := &cfgBuilder{g: g, labels: map[string]*cfgBlock{}}
	g.entry = g.newBlock()
	g.exit = g.newBlock()
	end := b.stmts(body.List, g.entry)
	if end != nil {
		g.fallsOff = end
		b.edge(end, g.exit, nil, false)
	}
	for _, pg := range b.gotos {
		if target := b.labels[pg.label]; target != nil {
			b.edge(pg.from, target, nil, false)
		}
	}
	for _, blk := range g.blocks {
		for _, e := range blk.succs {
			e.to.preds = append(e.to.preds, blk)
		}
	}
	return g
}

func (b *cfgBuilder) edge(from, to *cfgBlock, cond ast.Expr, negate bool) {
	from.succs = append(from.succs, cfgEdge{to: to, cond: cond, negate: negate})
}

// takeLabel consumes the label of the statement currently being built.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// stmts builds a statement list starting in cur; it returns the block
// control falls out of, or nil when every path terminated (return,
// break, panic, ...). Statements after a terminator still get a fresh
// unreachable block so labels inside them resolve.
func (b *cfgBuilder) stmts(list []ast.Stmt, cur *cfgBlock) *cfgBlock {
	for _, s := range list {
		if cur == nil {
			cur = b.g.newBlock() // unreachable continuation
		}
		cur = b.stmt(s, cur)
	}
	return cur
}

func (b *cfgBuilder) stmt(s ast.Stmt, cur *cfgBlock) *cfgBlock {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmts(s.List, cur)

	case *ast.LabeledStmt:
		lb := b.g.newBlock()
		b.edge(cur, lb, nil, false)
		b.labels[s.Label.Name] = lb
		b.pendingLabel = s.Label.Name
		return b.stmt(s.Stmt, lb)

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		b.edge(cur, b.g.exit, nil, false)
		return nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if t := findTarget(b.breaks, s.Label); t != nil {
				b.edge(cur, t, nil, false)
			}
			return nil
		case token.CONTINUE:
			if t := findTarget(b.continues, s.Label); t != nil {
				b.edge(cur, t, nil, false)
			}
			return nil
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: cur, label: s.Label.Name})
			return nil
		default: // fallthrough: the switch builder wires the edge
			return cur
		}

	case *ast.IfStmt:
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Cond)
		after := b.g.newBlock()
		then := b.g.newBlock()
		b.edge(cur, then, s.Cond, false)
		if end := b.stmts(s.Body.List, then); end != nil {
			b.edge(end, after, nil, false)
		}
		if s.Else != nil {
			els := b.g.newBlock()
			b.edge(cur, els, s.Cond, true)
			if end := b.stmt(s.Else, els); end != nil {
				b.edge(end, after, nil, false)
			}
		} else {
			b.edge(cur, after, s.Cond, true)
		}
		return after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		head := b.g.newBlock()
		b.edge(cur, head, nil, false)
		b.g.loopHeads[s] = head
		after := b.g.newBlock()
		body := b.g.newBlock()
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
			b.edge(head, body, s.Cond, false)
			b.edge(head, after, s.Cond, true)
		} else {
			b.edge(head, body, nil, false)
		}
		cont := head
		if s.Post != nil {
			post := b.g.newBlock()
			post.nodes = append(post.nodes, s.Post)
			b.edge(post, head, nil, false)
			cont = post
		}
		b.breaks = append(b.breaks, cfgTarget{label, after})
		b.continues = append(b.continues, cfgTarget{label, cont})
		if end := b.stmts(s.Body.List, body); end != nil {
			b.edge(end, cont, nil, false)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		return after

	case *ast.RangeStmt:
		label := b.takeLabel()
		cur.nodes = append(cur.nodes, s.X)
		head := b.g.newBlock()
		b.edge(cur, head, nil, false)
		b.g.loopHeads[s] = head
		body := b.g.newBlock()
		after := b.g.newBlock()
		b.edge(head, body, nil, false)
		b.edge(head, after, nil, false)
		b.breaks = append(b.breaks, cfgTarget{label, after})
		b.continues = append(b.continues, cfgTarget{label, head})
		if end := b.stmts(s.Body.List, body); end != nil {
			b.edge(end, head, nil, false)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		return after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		if s.Tag != nil {
			cur.nodes = append(cur.nodes, s.Tag)
		}
		return b.switchClauses(cur, label, s.Body.List, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			cur.nodes = append(cur.nodes, s.Init)
		}
		cur.nodes = append(cur.nodes, s.Assign)
		return b.switchClauses(cur, label, s.Body.List, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.g.newBlock()
		b.edge(cur, head, nil, false)
		b.g.selects[s] = head
		after := b.g.newBlock()
		b.breaks = append(b.breaks, cfgTarget{label, after})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.g.newBlock()
			blk.selectCase = true
			if cc.Comm != nil {
				blk.nodes = append(blk.nodes, cc.Comm)
			}
			b.edge(head, blk, nil, false)
			if end := b.stmts(cc.Body, blk); end != nil {
				b.edge(end, after, nil, false)
			}
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		return after

	case *ast.EmptyStmt:
		return cur

	case *ast.ExprStmt:
		cur.nodes = append(cur.nodes, s)
		if isTerminalCall(s.X) {
			b.edge(cur, b.g.exit, nil, false)
			return nil
		}
		return cur

	default:
		// AssignStmt, DeclStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// switchClauses wires the clause blocks of a (type) switch. Clause
// guards are modeled conservatively: every clause is reachable from the
// switch head, and the head also reaches the after-block unless a
// default clause exists.
func (b *cfgBuilder) switchClauses(cur *cfgBlock, label string, clauses []ast.Stmt, allowFallthrough bool) *cfgBlock {
	after := b.g.newBlock()
	b.breaks = append(b.breaks, cfgTarget{label, after})
	hasDefault := false
	blks := make([]*cfgBlock, len(clauses))
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		blks[i] = b.g.newBlock()
		for _, e := range cc.List {
			if _, isType := e.(*ast.Ident); !allowFallthrough && isType {
				continue // type-switch case lists name types, not values
			}
			blks[i].nodes = append(blks[i].nodes, e)
		}
		if cc.List == nil {
			hasDefault = true
		}
		b.edge(cur, blks[i], nil, false)
	}
	if !hasDefault {
		b.edge(cur, after, nil, false)
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		end := b.stmts(cc.Body, blks[i])
		if end == nil {
			continue
		}
		if allowFallthrough && endsWithFallthrough(cc.Body) && i+1 < len(blks) {
			b.edge(end, blks[i+1], nil, false)
		} else {
			b.edge(end, after, nil, false)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	return after
}

func endsWithFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func findTarget(stack []cfgTarget, label *ast.Ident) *cfgBlock {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == nil || stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return nil
}

// isTerminalCall reports whether expr is a call that never returns:
// panic, os.Exit, log.Fatal*. Paths ending in one are crash paths, not
// resource leaks, so they bypass the analyzers' exit checks.
func isTerminalCall(expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if x, ok := fun.X.(*ast.Ident); ok {
			if x.Name == "os" && fun.Sel.Name == "Exit" {
				return true
			}
			if x.Name == "log" && (fun.Sel.Name == "Fatal" || fun.Sel.Name == "Fatalf" || fun.Sel.Name == "Fatalln") {
				return true
			}
		}
	}
	return false
}

// sccMap assigns every block a strongly-connected-component id via
// Tarjan's algorithm and reports which components are cycles (more than
// one block, or a single block with a self edge).
func (g *funcCFG) sccMap() (ids map[*cfgBlock]int, cyclic map[int]bool) {
	ids = map[*cfgBlock]int{}
	cyclic = map[int]bool{}
	index := map[*cfgBlock]int{}
	low := map[*cfgBlock]int{}
	onStack := map[*cfgBlock]bool{}
	var stack []*cfgBlock
	next, comp := 0, 0

	var strongconnect func(v *cfgBlock)
	strongconnect = func(v *cfgBlock) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range v.succs {
			w := e.to
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			size := 0
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				ids[w] = comp
				size++
				if w == v {
					break
				}
			}
			if size > 1 {
				cyclic[comp] = true
			} else {
				for _, e := range v.succs {
					if e.to == v {
						cyclic[comp] = true
					}
				}
			}
			comp++
		}
	}
	for _, blk := range g.blocks {
		if _, seen := index[blk]; !seen {
			strongconnect(blk)
		}
	}
	return ids, cyclic
}

// reachesAvoiding reports whether target is reachable from start
// without entering any block in avoid.
func reachesAvoiding(start, target *cfgBlock, avoid map[*cfgBlock]bool) bool {
	seen := map[*cfgBlock]bool{}
	var walk func(b *cfgBlock) bool
	walk = func(b *cfgBlock) bool {
		if b == target {
			return true
		}
		if seen[b] || avoid[b] {
			return false
		}
		seen[b] = true
		for _, e := range b.succs {
			if walk(e.to) {
				return true
			}
		}
		return false
	}
	return walk(start)
}

// inspectSkipFuncLit visits the tree under n in source order but does
// not descend into function literal bodies; the literal node itself is
// still visited so callers can treat captures as escapes or transfers.
// CFG block nodes never contain nested statement blocks except through
// function literals, so this is the node walker the flow-sensitive
// analyzers use.
func inspectSkipFuncLit(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		if !fn(c) {
			return false
		}
		if _, isLit := c.(*ast.FuncLit); isLit && c != n {
			return false
		}
		return true
	})
}

// funcInfo is one analyzable function body: a declared function or a
// function literal (each literal is its own scope). funcScopes fills the
// syntactic half; newProgram adds the analysis state every flow analyzer
// shares, so each of these is computed once per run.
type funcInfo struct {
	pkg  *Package
	name string        // declared name; "<decl> (func literal)" for literals
	fn   *types.Func   // nil for literals
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	typ  *ast.FuncType
	body *ast.BlockStmt

	g      *funcCFG
	scc    map[*cfgBlock]int            // block -> strongly connected component
	cyclic map[int]bool                 // components that are cycles
	binds  map[types.Object]methodValue // method values captured into locals
	calls  []*callSite                  // every call of the body, block by block
}

// qualified renders "pkg.Recv.Name" for declarations and
// "pkg.Name (func literal)" for literals.
func (f *funcInfo) qualified() string {
	if f.fn != nil {
		return qualifiedFuncName(f.fn)
	}
	return shortPkg(f.pkg.Path) + "." + f.name
}

// funcScopes lists every function body in the package: each declaration
// followed by its function literals (including literals nested in other
// literals), tagged with the enclosing declaration's name.
func funcScopes(p *Package) []*funcInfo {
	var out []*funcInfo
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			out = append(out, &funcInfo{pkg: p, name: fd.Name.Name, fn: fn, decl: fd, typ: fd.Type, body: fd.Body})
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, &funcInfo{
						pkg: p, name: fd.Name.Name + " (func literal)",
						lit: lit, typ: lit.Type, body: lit.Body,
					})
				}
				return true
			})
		}
	}
	return out
}
