"""Unit tests for points-to / may-alias analysis."""

import pytest

from repro.analysis.aliasing import UNKNOWN, AllocaObj, GlobalObj, PointsTo
from repro.engine.context import AnalysisContext
from repro.frontend import compile_source
from repro.ir import Load, Store
from repro.ir.values import Constant, GlobalRef
from repro.memmodel.litmus import LITMUS_TESTS
from repro.programs import all_programs


def _analyze(src: str, fn: str = "f"):
    func = compile_source(src, "t").functions[fn]
    return func, PointsTo(func)


def _loads(func):
    return [i for i in func.instructions() if isinstance(i, Load)]


def _stores(func):
    return [i for i in func.instructions() if isinstance(i, Store)]


def test_globalref_points_to_global():
    func, pt = _analyze("global x; fn f() { x = 1; }")
    store = _stores(func)[0]
    assert pt.pointees(store.addr) == {GlobalObj("x")}


def test_local_pointer_assigned_two_globals():
    src = """
    global x; global y; global sel;
    fn f() {
      local p;
      if (sel) { p = &x; } else { p = &y; }
      *p = 1;
    }
    """
    func, pt = _analyze(src)
    # the store through p
    deref_store = [s for s in _stores(func) if s.is_dereference()][-1]
    objs = pt.pointees(deref_store.addr)
    assert objs == {GlobalObj("x"), GlobalObj("y")}


def test_null_initialized_pointer_stays_precise():
    # `local p = 0;` must not poison p's pointees with Unknown.
    src = """
    global x; global flag;
    fn f() {
      local p = 0;
      p = &x;
      *p = 1;
      flag = 1;
    }
    """
    func, pt = _analyze(src)
    deref_store = [s for s in _stores(func) if s.is_dereference()][-1]
    flag_store = [s for s in _stores(func) if str(s.addr) == "@flag"][0]
    assert pt.pointees(deref_store.addr) == {GlobalObj("x")}
    assert not pt.may_alias(deref_store.addr, flag_store.addr)


def test_may_alias_same_global():
    func, pt = _analyze("global x; fn f() { x = 1; local r = x; }")
    st = _stores(func)[0]
    ld = [l for l in _loads(func) if str(l.addr) == "@x"][0]
    assert pt.may_alias(st.addr, ld.addr)


def test_no_alias_distinct_globals():
    func, pt = _analyze("global x; global y; fn f() { x = 1; y = 2; }")
    s1, s2 = _stores(func)
    assert not pt.may_alias(s1.addr, s2.addr)


def test_unknown_pointer_aliases_globals_but_not_locals():
    src = """
    global g;
    fn f(p) {
      local secret;
      *p = 1;
      secret = 2;
      g = 3;
    }
    """
    from repro.ir import Constant

    func, pt = _analyze(src)
    stores = _stores(func)
    deref = [
        s for s in stores if isinstance(s.value, Constant) and s.value.value == 1
    ][0]
    g_store = [s for s in stores if str(s.addr) == "@g"][0]
    assert pt.pointees(deref.addr) == {UNKNOWN}
    assert pt.may_alias(deref.addr, g_store.addr)
    # non-escaped alloca: unknown cannot alias it
    secret_store = [
        s for s in stores
        if all(isinstance(o, AllocaObj) for o in pt.pointees(s.addr))
    ]
    assert secret_store  # the spills + secret
    assert all(not pt.may_alias(deref.addr, s.addr) for s in secret_store)


def test_gep_is_field_insensitive():
    from repro.ir import Constant

    func, pt = _analyze("global a[8]; fn f() { a[3] = 1; local r = a[5]; }")
    st = [
        s for s in _stores(func)
        if isinstance(s.value, Constant) and s.value.value == 1
    ][0]
    ld = [l for l in _loads(func) if l.is_dereference()][0]
    assert pt.may_alias(st.addr, ld.addr)


def test_potential_writers_finds_aliasing_stores():
    src = """
    global a[8]; global b[8];
    fn f() {
      a[1] = 10;
      b[1] = 20;
      local r = a[2];
    }
    """
    func, pt = _analyze(src)
    ld = [l for l in _loads(func) if l.is_dereference()][-1]
    writers = pt.potential_writers(ld)
    writer_bases = {str(w.addr.defining_inst.base) for w in writers}
    assert "@a" in writer_bases
    assert "@b" not in writer_bases


def test_potential_writers_includes_rmws():
    src = "global x; fn f() { local a = fadd(&x, 1); local r = x; }"
    func, pt = _analyze(src)
    ld = [l for l in _loads(func) if str(l.addr) == "@x"][0]
    writers = pt.potential_writers(ld)
    assert any(w.is_atomic_rmw() for w in writers)


def test_escaped_alloca_via_call():
    src = """
    fn sink(p) { }
    fn f() {
      local leaked;
      local kept;
      sink(&leaked);
      kept = 1;
    }
    """
    func, pt = _analyze(src)
    names = set()
    for obj in pt.escaped_allocas:
        names.add(obj.inst.var_name)
    assert "leaked" in names
    assert "kept" not in names


def test_escaped_alloca_via_global_store():
    src = """
    global p;
    fn f() {
      local shared;
      p = &shared;
    }
    """
    func, pt = _analyze(src)
    assert any(o.inst.var_name == "shared" for o in pt.escaped_allocas)


def test_escaped_alloca_transitive():
    # &inner stored into outer; &outer escapes through a call.
    src = """
    fn sink(p) { }
    fn f() {
      local inner;
      local outer;
      outer = &inner;
      sink(&outer);
    }
    """
    func, pt = _analyze(src)
    names = {o.inst.var_name for o in pt.escaped_allocas}
    assert {"inner", "outer"} <= names


def test_is_local_address():
    src = "global g; fn f() { local a; a = 1; g = 2; }"
    func, pt = _analyze(src)
    stores = _stores(func)
    local_store = [s for s in stores if not str(s.addr).startswith("@")][0]
    global_store = [s for s in stores if str(s.addr) == "@g"][0]
    assert pt.is_local_address(local_store.addr)
    assert not pt.is_local_address(global_store.addr)


# --- the writer index answers exactly what a full scan answers --------------


def _scan_writers(pt, inst):
    """The definition: every memory writer in the function whose
    address may alias the read's, in instruction order."""
    addr = inst.address_operand()
    return [
        other
        for other in pt.function.instructions()
        if other.writes_memory()
        and other.address_operand() is not None
        and pt.may_alias(addr, other.address_operand())
    ]


_WRITER_PROGRAMS = [
    *(("corpus", name) for name in sorted(all_programs())),
    *(("litmus", name) for name in sorted(LITMUS_TESTS)),
]


@pytest.mark.parametrize(
    "suite,name", _WRITER_PROGRAMS, ids=[f"{s}-{n}" for s, n in _WRITER_PROGRAMS]
)
def test_potential_writers_equals_full_scan(suite, name):
    if suite == "corpus":
        program = all_programs()[name].compile()
    else:
        program = LITMUS_TESTS[name].compile()
    reads = 0
    for func in program.functions.values():
        pt = PointsTo(func)
        for inst in func.instructions():
            if inst.reads_memory():
                reads += 1
                assert pt.potential_writers(inst) == _scan_writers(pt, inst)
    assert reads


def _counting_alias_test(pt, monkeypatch):
    calls = []
    real = pt._objects_alias

    def counted(sa, sb):
        calls.append((sa, sb))
        return real(sa, sb)

    monkeypatch.setattr(pt, "_objects_alias", counted)
    return calls


def test_potential_writers_memoized_per_pointee_set(monkeypatch):
    src = "global x; global y; fn f() { x = 1; y = 2; local a = x; local b = x; }"
    func, pt = _analyze(src)
    first, second = [l for l in _loads(func) if str(l.addr) == "@x"]
    calls = _counting_alias_test(pt, monkeypatch)
    writers = pt.potential_writers(first)
    assert [str(w.addr) for w in writers] == ["@x"]
    scanned = len(calls)
    # One alias test per writer site (the two globals and two locals).
    assert scanned == sum(1 for i in func.instructions() if i.writes_memory())
    assert pt.potential_writers(second) == writers
    assert len(calls) == scanned  # same pointee set: no second scan


def test_potential_writers_returns_a_fresh_list():
    src = "global x; fn f() { x = 1; x = 2; local a = x; }"
    func, pt = _analyze(src)
    ld = _loads(func)[0]
    writers = pt.potential_writers(ld)
    expected = list(writers)
    writers.clear()
    writers.append(ld)
    assert pt.potential_writers(ld) == expected
    assert pt.potential_writers(ld) is not pt.potential_writers(ld)


def test_fresh_points_to_after_edit_sees_new_writer():
    src = """
    global int flag;
    global int data;
    fn consumer(tid) { local r = 0; r = data; observe("r", r); }
    thread consumer(0);
    """
    program = compile_source(src, "edit")
    ctx = AnalysisContext(program)
    consumer = program.functions["consumer"]
    data_load = [l for l in _loads(consumer) if str(l.addr) == "@data"][0]
    before = ctx.points_to(consumer)
    assert before.potential_writers(data_load) == []
    edit = Store(GlobalRef("data"), Constant(7))
    consumer.blocks[0].insert(0, edit)
    consumer.finalize()
    ctx.refresh()
    after = ctx.points_to(consumer)
    assert after is not before
    assert after.potential_writers(data_load) == [edit]
