package minipy

// ScopeInfo describes name binding for one function body, following
// Python's rules: a name assigned anywhere in the function is local
// unless declared global or nonlocal; everything else resolves up the
// lexical chain at run time.
type ScopeInfo struct {
	// Locals are names bound in this scope (parameters, assignment
	// targets, loop variables, def names, with/except aliases), in
	// first-appearance order.
	Locals []string
	// Globals are names declared with the global statement.
	Globals map[string]bool
	// Nonlocals are names declared with the nonlocal statement.
	Nonlocals map[string]bool
	// Annotations are the annotations this scope gives its names, by a
	// parameter or an "x: T [= e]" statement, in source order.
	Annotations []Annotation

	localSet map[string]bool
	skip     Stmt
}

// Annotation is one annotation of a name.
type Annotation struct {
	Name string
	Type Expr
}

// IsLocal reports whether name binds locally in this scope.
func (s *ScopeInfo) IsLocal(name string) bool { return s.localSet[name] }

// AnalyzeScope computes the ScopeInfo of a function body (or module
// body when params is nil and topLevel).
func AnalyzeScope(params []Param, body []Stmt) *ScopeInfo {
	return AnalyzeScopeExcluding(params, body, nil)
}

// AnalyzeScopeExcluding is AnalyzeScope with one statement subtree
// skipped. The OMP4Py transformer uses it to decide which variables
// are "defined before the block" (shared by default) versus bound
// only inside a directive block (thread-private).
func AnalyzeScopeExcluding(params []Param, body []Stmt, skip Stmt) *ScopeInfo {
	s := &ScopeInfo{
		Globals:   make(map[string]bool),
		Nonlocals: make(map[string]bool),
		localSet:  make(map[string]bool),
		skip:      skip,
	}
	for _, p := range params {
		s.addLocal(p.Name)
		s.annotate(p.Name, p.Annotation)
	}
	for _, st := range body {
		s.scanStmt(st)
	}
	return s
}

func (s *ScopeInfo) addLocal(name string) {
	if name == "" || s.Globals[name] || s.Nonlocals[name] {
		return
	}
	if !s.localSet[name] {
		s.localSet[name] = true
		s.Locals = append(s.Locals, name)
	}
}

func (s *ScopeInfo) annotate(name string, ann Expr) {
	if ann != nil {
		s.Annotations = append(s.Annotations, Annotation{name, ann})
	}
}

func (s *ScopeInfo) bindTarget(e Expr) {
	switch t := e.(type) {
	case *Name:
		s.addLocal(t.ID)
	case *TupleLit:
		for _, el := range t.Elts {
			s.bindTarget(el)
		}
	case *ListLit:
		for _, el := range t.Elts {
			s.bindTarget(el)
		}
		// Attribute/Index targets do not bind names.
	}
}

// scanStmt walks statements of this scope only; nested FuncDef and
// Lambda bodies are separate scopes (their names bind here, their
// bodies do not).
func (s *ScopeInfo) scanStmt(st Stmt) {
	if s.skip != nil && st == s.skip {
		return
	}
	switch t := st.(type) {
	case *FuncDef:
		s.addLocal(t.Name)
	case *Assign:
		for _, tgt := range t.Targets {
			s.bindTarget(tgt)
		}
	case *AugAssign:
		s.bindTarget(t.Target)
	case *AnnAssign:
		s.bindTarget(t.Target)
		if n, ok := t.Target.(*Name); ok {
			s.annotate(n.ID, t.Annotation)
		}
	case *For:
		s.bindTarget(t.Target)
		for _, b := range t.Body {
			s.scanStmt(b)
		}
	case *While:
		for _, b := range t.Body {
			s.scanStmt(b)
		}
	case *If:
		for _, b := range t.Body {
			s.scanStmt(b)
		}
		for _, b := range t.Else {
			s.scanStmt(b)
		}
	case *With:
		for _, item := range t.Items {
			if item.Vars != nil {
				s.bindTarget(item.Vars)
			}
		}
		for _, b := range t.Body {
			s.scanStmt(b)
		}
	case *Try:
		for _, b := range t.Body {
			s.scanStmt(b)
		}
		for _, h := range t.Handlers {
			if h.Name != "" {
				s.addLocal(h.Name)
			}
			for _, b := range h.Body {
				s.scanStmt(b)
			}
		}
		for _, b := range t.Final {
			s.scanStmt(b)
		}
	case *Global:
		for _, n := range t.Names {
			t2 := n
			s.Globals[t2] = true
			delete(s.localSet, t2)
		}
	case *Nonlocal:
		for _, n := range t.Names {
			s.Nonlocals[n] = true
			delete(s.localSet, n)
		}
	case *Import:
		for _, a := range t.Names {
			name := a.AsName
			if name == "" {
				name = a.Name
				// "import a.b" binds "a".
				for i := 0; i < len(name); i++ {
					if name[i] == '.' {
						name = name[:i]
						break
					}
				}
			}
			s.addLocal(name)
		}
	case *FromImport:
		for _, a := range t.Names {
			if a.AsName != "" {
				s.addLocal(a.AsName)
			} else {
				s.addLocal(a.Name)
			}
		}
	}
}
