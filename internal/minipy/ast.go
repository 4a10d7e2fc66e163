package minipy

// Node is any AST node.
type Node interface {
	NodePos() Position
}

type base struct {
	P Position
}

// NodePos returns the node's source position.
func (b base) NodePos() Position { return b.P }

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Module is a whole source file.
type Module struct {
	base
	Body []Stmt
}

// Param is one function parameter with optional annotation and
// default value.
type Param struct {
	Name       string
	Annotation Expr
	Default    Expr
}

// FuncDef is a def statement, optionally decorated.
type FuncDef struct {
	base
	Name       string
	Params     []Param
	Body       []Stmt
	Decorators []Expr
	Returns    Expr       // optional "-> type" annotation
	Scope      *ScopeInfo // the scope record (Resolve)
}

// Return is a return statement.
type Return struct {
	base
	Value Expr // nil for bare return
}

// If is an if/elif/else chain (elif is a nested If in Else).
type If struct {
	base
	Cond Expr
	Body []Stmt
	Else []Stmt
}

// While is a while loop.
type While struct {
	base
	Cond      Expr
	Body      []Stmt
	Workshare *Workshare // the lowered worksharing loop this is, if any
}

// Workshare is the record the transform leaves on the
// `while __omp.for_next(b):` it lowers a for directive to, whose body
// is the one chunk loop. Parse never sets it and Unparse ignores it; the
// compiled tier reads it instead of matching the lowered text.
type Workshare struct {
	Bounds      string  // the bounds variable for_bounds assigns
	Kind        string  // the schedule kind passed to for_init
	Chunk       Expr    // for_init's chunk argument itself (a NoneLit for the default)
	Ordered     bool    // an ordered clause
	LastPrivate bool    // a lastprivate clause: for_last follows the loop
	Vars        []*Name // the loop variables: the chunk loop's target, or the per-level unravel targets under collapse
}

// For is a for-in loop.
type For struct {
	base
	Target Expr // Name or TupleLit of Names
	Iter   Expr
	Body   []Stmt
}

// Assign is "target = value" (possibly chained and with tuple
// targets).
type Assign struct {
	base
	Targets []Expr
	Value   Expr
}

// AugAssign is "target op= value".
type AugAssign struct {
	base
	Target Expr
	Op     string // "+", "-", ...
	Value  Expr
}

// AnnAssign is an annotated assignment "x: float = 0.0"; Value may be
// nil for a bare declaration.
type AnnAssign struct {
	base
	Target     Expr
	Annotation Expr
	Value      Expr
}

// ExprStmt is an expression used as a statement.
type ExprStmt struct {
	base
	X Expr
}

// WithItem is one "ctx [as name]" item of a with statement.
type WithItem struct {
	Context Expr
	Vars    Expr // optional "as" target
}

// With is a with statement; OpenMP directives appear as
// `with omp("..."):` blocks.
type With struct {
	base
	Items []WithItem
	Body  []Stmt
}

// Global is a global declaration.
type Global struct {
	base
	Names []string
}

// Nonlocal is a nonlocal declaration.
type Nonlocal struct {
	base
	Names []string
}

// ImportAlias is one "name [as asname]" of an import statement.
type ImportAlias struct {
	Name   string
	AsName string
}

// Import is "import a, b as c".
type Import struct {
	base
	Names []ImportAlias
}

// FromImport is "from mod import a, b" or "from mod import *".
type FromImport struct {
	base
	Module string
	Names  []ImportAlias // empty means *
	Star   bool
}

// Break is a break statement.
type Break struct{ base }

// Continue is a continue statement.
type Continue struct{ base }

// Pass is a pass statement.
type Pass struct{ base }

// ExceptHandler is one except clause.
type ExceptHandler struct {
	Type Expr   // nil for bare except
	Name string // optional "as name"
	Body []Stmt
}

// Try is try/except/finally.
type Try struct {
	base
	Body     []Stmt
	Handlers []ExceptHandler
	Final    []Stmt
}

// Raise re-raises or raises an exception expression.
type Raise struct {
	base
	Exc Expr // nil for bare raise
}

// Assert is an assert statement.
type Assert struct {
	base
	Test Expr
	Msg  Expr
}

// Del removes names or items.
type Del struct {
	base
	Targets []Expr
}

func (*FuncDef) stmtNode()    {}
func (*Return) stmtNode()     {}
func (*If) stmtNode()         {}
func (*While) stmtNode()      {}
func (*For) stmtNode()        {}
func (*Assign) stmtNode()     {}
func (*AugAssign) stmtNode()  {}
func (*AnnAssign) stmtNode()  {}
func (*ExprStmt) stmtNode()   {}
func (*With) stmtNode()       {}
func (*Global) stmtNode()     {}
func (*Nonlocal) stmtNode()   {}
func (*Import) stmtNode()     {}
func (*FromImport) stmtNode() {}
func (*Break) stmtNode()      {}
func (*Continue) stmtNode()   {}
func (*Pass) stmtNode()       {}
func (*Try) stmtNode()        {}
func (*Raise) stmtNode()      {}
func (*Assert) stmtNode()     {}
func (*Del) stmtNode()        {}

// Name is an identifier reference.
type Name struct {
	base
	ID string
}

// IntLit is an integer literal.
type IntLit struct {
	base
	V int64
}

// FloatLit is a float literal.
type FloatLit struct {
	base
	V float64
}

// StrLit is a string literal.
type StrLit struct {
	base
	V string
}

// BoolLit is True or False.
type BoolLit struct {
	base
	V bool
}

// NoneLit is None.
type NoneLit struct{ base }

// BinOp is a binary arithmetic/bitwise operation.
type BinOp struct {
	base
	Op   string // + - * / // % ** & | ^ << >>
	L, R Expr
}

// BoolOp is "and"/"or" over two or more operands (short-circuit).
type BoolOp struct {
	base
	Op     string // "and" | "or"
	Values []Expr
}

// UnaryOp is -x, +x, ~x, or not x.
type UnaryOp struct {
	base
	Op string
	X  Expr
}

// Compare is a chained comparison a < b <= c.
type Compare struct {
	base
	L      Expr
	Ops    []string // == != < <= > >= in "not in" is "is not"
	Rights []Expr
}

// Keyword is one keyword argument of a call.
type Keyword struct {
	Name  string
	Value Expr
}

// Call is a function or method call.
type Call struct {
	base
	Fn       Expr
	Args     []Expr
	Keywords []Keyword
}

// Attribute is x.name.
type Attribute struct {
	base
	X    Expr
	Name string
}

// Index is x[i].
type Index struct {
	base
	X Expr
	I Expr
}

// SliceExpr is x[lo:hi:step] with optional parts.
type SliceExpr struct {
	base
	X            Expr
	Lo, Hi, Step Expr
}

// ListLit is a list literal.
type ListLit struct {
	base
	Elts []Expr
}

// TupleLit is a tuple literal (with or without parentheses).
type TupleLit struct {
	base
	Elts []Expr
}

// DictLit is a dict literal.
type DictLit struct {
	base
	Keys, Vals []Expr
}

// SetLit is a set literal.
type SetLit struct {
	base
	Elts []Expr
}

// IfExp is the conditional expression "a if cond else b".
type IfExp struct {
	base
	Cond, Then, Else Expr
}

// Lambda is a lambda expression.
type Lambda struct {
	base
	Params []Param
	Body   Expr
	Scope  *ScopeInfo // the scope record (Resolve)
}

func (*Name) exprNode()      {}
func (*IntLit) exprNode()    {}
func (*FloatLit) exprNode()  {}
func (*StrLit) exprNode()    {}
func (*BoolLit) exprNode()   {}
func (*NoneLit) exprNode()   {}
func (*BinOp) exprNode()     {}
func (*BoolOp) exprNode()    {}
func (*UnaryOp) exprNode()   {}
func (*Compare) exprNode()   {}
func (*Call) exprNode()      {}
func (*Attribute) exprNode() {}
func (*Index) exprNode()     {}
func (*SliceExpr) exprNode() {}
func (*ListLit) exprNode()   {}
func (*TupleLit) exprNode()  {}
func (*DictLit) exprNode()   {}
func (*SetLit) exprNode()    {}
func (*IfExp) exprNode()     {}
func (*Lambda) exprNode()    {}
