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

// allocSpace hands out the next tablespace id (DDL, under ddl lock).
func (e *Engine) allocSpace(mt *Mtr) (types.SpaceID, error) {
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
	if err := cat.Put(mt, catalogMetaKey, marshalCatalogMeta(next+1)); err != nil {
		return 0, err
	}
	return next, nil
}

// CreateTable creates a table with a clustered primary index (RW only).
func (e *Engine) CreateTable(name string) (*Table, error) {
	if e.cfg.ReadOnly {
		return nil, ErrNotRW
	}
	if t, err := e.OpenTable(name); err == nil && t != nil {
		return nil, fmt.Errorf("%w: %s", ErrTableExists, name)
	}
	mt := e.BeginMtr()
	committed := false
	defer func() {
		if !committed {
			_, _ = mt.Commit()
		}
	}()
	space, err := e.allocSpace(mt)
	if err != nil {
		return nil, err
	}
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
// starts empty; callers backfill it if the table has data.
func (e *Engine) CreateIndex(table *Table, name string) (*Index, error) {
	if e.cfg.ReadOnly {
		return nil, ErrNotRW
	}
	if _, ok := table.Indexes[name]; ok {
		return nil, fmt.Errorf("%w: index %s", ErrTableExists, name)
	}
	mt := e.BeginMtr()
	committed := false
	defer func() {
		if !committed {
			_, _ = mt.Commit()
		}
	}()
	space, err := e.allocSpace(mt)
	if err != nil {
		return nil, err
	}
	if _, err := btree.Create(e, mt, space); err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Space: space, Tree: e.tree(space)}
	table.Indexes[name] = ix
	if err := e.catalogTree().Put(mt, uint64(table.Space), marshalTableDef(table)); err != nil {
		delete(table.Indexes, name)
		return nil, err
	}
	if _, err := mt.Commit(); err != nil {
		committed = true
		delete(table.Indexes, name)
		return nil, err
	}
	committed = true
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
	// Touch the undo header page so it exists with a zeroed slot table.
	hdr, err := e.Fetch(types.PageID{Space: UndoSpace, No: 0})
	if err != nil {
		return err
	}
	hdr.Latch.Lock()
	mt.LogWrite(hdr, txn.UndoAllocOffset, txn.MarshalUndoAlloc(1, 8))
	hdr.Latch.Unlock()
	e.Unpin(hdr)
	committed = true
	end, err := mt.Commit()
	if err != nil {
		return err
	}
	e.undoPage, e.undoOff, e.undoExact = 1, 8, true
	e.nextTrx.Store(1)
	e.activeMu.Lock()
	e.publishViewLocked() // the region's first view: nothing in flight
	e.activeMu.Unlock()
	e.start()
	return e.DurableCommit(end)
}

var errNotBootstrapped = errors.New("engine: volume not bootstrapped")
