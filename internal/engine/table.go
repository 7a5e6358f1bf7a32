package engine

import (
	"errors"
	"fmt"

	"polardb/internal/btree"
	"polardb/internal/txn"
	"polardb/internal/types"
	"polardb/internal/wire"
)

// catalogMetaKey holds catalog-wide metadata (the space allocator).
const catalogMetaKey = 0

// Table is a user table: a clustered primary B+tree plus optional
// secondary indexes (each its own tablespace; entries map an index key to
// the primary key, maintained by the same transactions).
type Table struct {
	Name    string
	Space   types.SpaceID
	Primary *btree.Tree
	Indexes map[string]*Index
}

// Index is a secondary index on a table.
type Index struct {
	Name  string
	Space types.SpaceID
	Tree  *btree.Tree
}

// tree returns (creating lazily) the engine-bound tree for a space.
func (e *Engine) tree(space types.SpaceID) *btree.Tree {
	e.treesMu.Lock()
	defer e.treesMu.Unlock()
	t, ok := e.trees[space]
	if !ok {
		t = btree.Open(e, space)
		e.trees[space] = t
	}
	return t
}

func (e *Engine) catalogTree() *btree.Tree { return e.tree(CatalogSpace) }

// catalog value encoding
func marshalTableDef(t *Table) []byte {
	w := wire.NewWriter(64)
	w.String(t.Name)
	w.U32(uint32(t.Space))
	w.U16(uint16(len(t.Indexes)))
	for _, ix := range t.Indexes {
		w.String(ix.Name)
		w.U32(uint32(ix.Space))
	}
	return w.Bytes()
}

func (e *Engine) unmarshalTableDef(buf []byte) (*Table, error) {
	rd := wire.NewReader(buf)
	t := &Table{
		Name:    rd.String(),
		Space:   types.SpaceID(rd.U32()),
		Indexes: make(map[string]*Index),
	}
	n := int(rd.U16())
	for i := 0; i < n; i++ {
		ix := &Index{Name: rd.String(), Space: types.SpaceID(rd.U32())}
		ix.Tree = e.tree(ix.Space)
		t.Indexes[ix.Name] = ix
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	t.Primary = e.tree(t.Space)
	return t, nil
}

func marshalCatalogMeta(nextSpace types.SpaceID) []byte {
	w := wire.NewWriter(8)
	w.U32(uint32(nextSpace))
	return w.Bytes()
}

// readMode picks the traversal mode for engine-internal reads.
func (e *Engine) readMode() btree.TraverseMode {
	if e.cfg.ReadOnly {
		return e.cfg.ROMode
	}
	return btree.Local
}

// lockDDL serializes DDL on the RW: it takes the catalog-meta row's lock
// under a fresh id, so one DDL statement at a time reads and advances the
// space allocator, checks names and rewrites table definitions. The
// caller releases it with unlockDDL.
func (e *Engine) lockDDL() (types.TrxID, error) {
	id := types.TrxID(e.nextTrx.Add(1))
	if err := e.locks.Lock(id, CatalogSpace, catalogMetaKey); err != nil {
		return 0, fmt.Errorf("engine: DDL lock: %w", err)
	}
	return id, nil
}

func (e *Engine) unlockDDL(id types.TrxID) {
	e.locks.ReleaseAll(id, []txn.LockRef{{Space: CatalogSpace, Key: catalogMetaKey}})
}

// allocSpace hands out the next tablespace id (DDL, under lockDDL) in an
// MTR of its own, committed before the caller's: a second catalog write in
// one MTR would descend from the root while holding the first's leaf. The
// bump's redo so precedes all of the new space's (DESIGN refinement 7).
func (e *Engine) allocSpace() (types.SpaceID, error) {
	cat := e.catalogTree()
	raw, err := cat.Get(catalogMetaKey, btree.Local)
	if err != nil {
		return 0, fmt.Errorf("engine: catalog meta: %w", err)
	}
	rd := wire.NewReader(raw)
	next := types.SpaceID(rd.U32())
	if err := rd.Err(); err != nil {
		return 0, err
	}
	mt := e.BeginMtr()
	err = cat.Put(mt, catalogMetaKey, marshalCatalogMeta(next+1))
	if _, cerr := mt.Commit(); err == nil {
		err = cerr
	}
	return next, err
}

// CreateTable creates a table with a clustered primary index (RW only).
func (e *Engine) CreateTable(name string) (*Table, error) {
	if e.cfg.ReadOnly {
		return nil, ErrNotRW
	}
	ddl, err := e.lockDDL()
	if err != nil {
		return nil, err
	}
	defer e.unlockDDL(ddl)
	if t, err := e.OpenTable(name); err == nil && t != nil {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	space, err := e.allocSpace()
	if err != nil {
		return nil, err
	}
	mt := e.BeginMtr()
	committed := false
	defer func() {
		if !committed {
			_, _ = mt.Commit()
		}
	}()
	if _, err := btree.Create(e, mt, space); err != nil {
		return nil, err
	}
	t := &Table{Name: name, Space: space, Indexes: make(map[string]*Index)}
	if err := e.catalogTree().Put(mt, uint64(space), marshalTableDef(t)); err != nil {
		return nil, err
	}
	if _, err := mt.Commit(); err != nil {
		committed = true
		return nil, err
	}
	committed = true
	t.Primary = e.tree(space)
	e.cacheTable(t)
	return t, nil
}

// CreateIndex adds a secondary index to a table (RW only). The index tree
// starts empty; callers backfill it if the table has data. The table's
// new definition is published as a new *Table: sessions may be reading
// the one they got from OpenTable, and table is left as it was.
func (e *Engine) CreateIndex(table *Table, name string) (*Index, error) {
	if e.cfg.ReadOnly {
		return nil, ErrNotRW
	}
	ddl, err := e.lockDDL()
	if err != nil {
		return nil, err
	}
	defer e.unlockDDL(ddl)
	cur, err := e.OpenTable(table.Name) // may hold indexes added since table was read
	if err != nil {
		return nil, err
	}
	if _, ok := cur.Indexes[name]; ok {
		return nil, fmt.Errorf("%w: index %s", ErrTableExists, name)
	}
	space, err := e.allocSpace()
	if err != nil {
		return nil, err
	}
	mt := e.BeginMtr()
	committed := false
	defer func() {
		if !committed {
			_, _ = mt.Commit()
		}
	}()
	if _, err := btree.Create(e, mt, space); err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Space: space, Tree: e.tree(space)}
	next := &Table{Name: cur.Name, Space: cur.Space, Primary: cur.Primary, Indexes: map[string]*Index{name: ix}}
	for n, x := range cur.Indexes {
		next.Indexes[n] = x
	}
	if err := e.catalogTree().Put(mt, uint64(next.Space), marshalTableDef(next)); err != nil {
		return nil, err
	}
	if _, err := mt.Commit(); err != nil {
		committed = true
		return nil, err
	}
	committed = true
	e.cacheTable(next)
	return ix, nil
}

// OpenTable finds a table by name (any node).
func (e *Engine) OpenTable(name string) (*Table, error) {
	if t := e.cachedTable(name); t != nil {
		return t, nil
	}
	var found *Table
	var scanErr error
	err := e.catalogTree().Scan(1, ^uint64(0), e.readMode(), func(kv btree.KV) bool {
		t, err := e.unmarshalTableDef(kv.Value)
		if err != nil {
			scanErr = err
			return false
		}
		if t.Name == name {
			found = t
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if scanErr != nil {
		return nil, scanErr
	}
	if found == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	e.cacheTable(found)
	return found, nil
}

// OpenIndex returns the named secondary index of tbl (any node). A node
// caches a table's definition when it first opens it, so an index created
// on the RW since is missing there: on a miss the table's catalog row is
// read once more, and cached (should a racing DDL's newer definition be
// replaced by it, the next miss reads the row again).
func (e *Engine) OpenIndex(tbl *Table, name string) (*Index, error) {
	if ix, ok := tbl.Indexes[name]; ok {
		return ix, nil
	}
	raw, err := e.catalogTree().Get(uint64(tbl.Space), e.readMode())
	cur := tbl
	if err == nil {
		cur, err = e.unmarshalTableDef(raw)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: catalog row of %s: %w", tbl.Name, err)
	}
	e.cacheTable(cur)
	if ix, ok := cur.Indexes[name]; ok {
		return ix, nil
	}
	return nil, fmt.Errorf("engine: no index %s on %s", name, tbl.Name)
}

func (e *Engine) cacheTable(t *Table) {
	e.tablesMu.Lock()
	defer e.tablesMu.Unlock()
	e.tables[t.Name] = t
}

func (e *Engine) cachedTable(name string) *Table {
	e.tablesMu.Lock()
	defer e.tablesMu.Unlock()
	return e.tables[name]
}

// RefreshCatalog drops the table cache (RO nodes after DDL on the RW).
func (e *Engine) RefreshCatalog() {
	e.tablesMu.Lock()
	defer e.tablesMu.Unlock()
	e.tables = make(map[string]*Table)
}

// Bootstrap initializes a fresh volume: catalog tree, catalog meta, undo
// header. Must run exactly once per volume, on the first RW node, before
// any transaction.
func (e *Engine) Bootstrap() error {
	if e.cfg.ReadOnly {
		return ErrNotRW
	}
	e.buf = e.newBufferAt(0)
	mt := e.BeginMtr()
	committed := false
	defer func() {
		if !committed {
			// Publish whatever was logged before the failure so the
			// mini-transaction's pins and deferred PL latches drop.
			_, _ = mt.Commit()
		}
	}()
	if _, err := btree.Create(e, mt, CatalogSpace); err != nil {
		return err
	}
	if err := e.catalogTree().Put(mt, catalogMetaKey, marshalCatalogMeta(FirstUserSpace)); err != nil {
		return err
	}
	// Write the undo header so it exists with a zeroed slot table and the
	// undo cursor at the start of page 1.
	hdr, err := e.undoHeader(mt)
	if err != nil {
		return err
	}
	mt.LogWrite(hdr, txn.UndoAllocOffset, txn.MarshalUndoAlloc(1, 8))
	committed = true
	end, err := mt.Commit()
	if err != nil {
		return err
	}
	e.nextTrx.Store(1)
	e.activeMu.Lock()
	e.publishViewLocked() // the region's first view: nothing in flight
	e.activeMu.Unlock()
	e.start()
	return e.DurableCommit(end)
}

var errNotBootstrapped = errors.New("engine: volume not bootstrapped")
