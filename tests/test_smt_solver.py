"""Tests for the term language and the finite-domain model finder."""

import pytest

from repro.smt import Solver, SolverTimeout, UNKNOWN, evaluate, terms as T


class TestTermConstruction:
    def test_constant_folding(self):
        assert T.add(T.const(2), T.const(3)) == T.const(5)
        assert T.mul(T.const(2), T.const(3)) == T.const(6)
        assert T.lt(T.const(1), T.const(2)) == T.TRUE
        assert T.concat(T.const("a"), T.const("b")) == T.const("ab")
        assert T.eq(T.const(1), T.const(1)) == T.TRUE
        assert T.eq(T.const(1), T.const(2)) == T.FALSE

    def test_boolean_unit_laws(self):
        x = T.var("x", T.BOOL)
        assert T.and_(T.TRUE, x) == x
        assert T.and_(T.FALSE, x) == T.FALSE
        assert T.or_(T.FALSE, x) == x
        assert T.or_(T.TRUE, x) == T.TRUE
        assert T.and_() == T.TRUE
        assert T.or_() == T.FALSE

    def test_not_involution(self):
        x = T.var("x", T.BOOL)
        assert T.not_(T.not_(x)) == x
        assert T.not_(T.TRUE) == T.FALSE

    def test_and_flattens(self):
        x, y, z = (T.var(n, T.BOOL) for n in "xyz")
        inner = T.and_(x, y)
        assert T.and_(inner, z).args == (x, y, z)

    def test_ite_simplification(self):
        x = T.var("x", T.INT)
        assert T.ite(T.TRUE, x, T.const(0)) == x
        assert T.ite(T.FALSE, x, T.const(0)) == T.const(0)
        assert T.ite(T.var("c", T.BOOL), x, x) == x

    def test_eq_reflexive(self):
        x = T.var("x", T.INT)
        assert T.eq(x, x) == T.TRUE

    def test_distinct(self):
        a, b = T.const(1), T.const(2)
        assert T.distinct(a, b) == T.TRUE
        assert T.distinct(a, T.const(1)) == T.FALSE

    def test_in_list(self):
        x = T.var("x", T.STR)
        term = T.in_list(x, ("a", "b"))
        assert evaluate(term, {"x": "b"}) is True
        assert evaluate(term, {"x": "c"}) is False

    def test_null_handling(self):
        n = T.null(T.INT)
        assert T.is_null(n) == T.TRUE
        assert T.is_null(T.const(3)) == T.FALSE

    def test_free_vars(self):
        x, y = T.var("x", T.INT), T.var("y", T.INT)
        assert T.add(x, T.mul(y, T.const(2))).free_vars() == {"x", "y"}

    def test_cross_type_comparison_folds_false(self):
        assert T.lt(T.const("zz"), T.const(0)) == T.FALSE


class TestEvaluation:
    def test_three_valued_and(self):
        x, y = T.var("x", T.BOOL), T.var("y", T.BOOL)
        term = T.and_(x, y)
        assert evaluate(term, {"x": False}) is False  # short-circuit
        assert evaluate(term, {"x": True}) is UNKNOWN
        assert evaluate(term, {"x": True, "y": True}) is True

    def test_three_valued_or(self):
        x, y = T.var("x", T.BOOL), T.var("y", T.BOOL)
        term = T.or_(x, y)
        assert evaluate(term, {"x": True}) is True
        assert evaluate(term, {"x": False}) is UNKNOWN

    def test_ite_branch_agreement(self):
        c = T.var("c", T.BOOL)
        term = T.ite(c, T.const(5), T.const(5))
        # Constructor already folds; evaluate a manual App too.
        from repro.smt.terms import App
        manual = App("ite", (c, T.const(5), T.const(5)), T.INT)
        assert evaluate(manual, {}) == 5
        assert term == T.const(5)

    def test_null_ordered_comparison_false(self):
        x = T.var("x", T.INT)
        assert evaluate(T.lt(x, T.const(1)), {"x": None}) is False

    def test_arith_null_propagates(self):
        x = T.var("x", T.INT)
        assert evaluate(T.add(x, T.const(1)), {"x": None}) is None


class TestSolver:
    def test_sat_simple(self):
        s = Solver()
        x = T.var("x", T.INT)
        s.add(T.eq(T.add(x, T.const(1)), T.const(3)))
        s.declare("x", [0, 1, 2, 3])
        model = s.check()
        assert model["x"] == 2

    def test_unsat(self):
        s = Solver()
        x = T.var("x", T.INT)
        s.add(T.lt(x, T.const(0)))
        s.declare("x", [0, 1, 2])
        assert s.check() is None

    def test_solver_call_span_reports_cpu(self):
        from repro import obs

        s = Solver()
        x = T.var("x", T.INT)
        s.add(T.eq(T.add(x, T.const(1)), T.const(3)))
        s.declare("x", [0, 1, 2, 3])
        tracer = obs.Tracer()
        with obs.activate(tracer):
            s.check()
        [span] = tracer.roots
        assert span.kind == "solver-call"
        assert span.cpu_s > 0

    def test_multi_var_constraint_propagation(self):
        s = Solver()
        xs = [T.var(f"x{i}", T.INT) for i in range(8)]
        # x0 == 7 is impossible: early pruning must make this fast.
        s.add(T.eq(xs[0], T.const(7)))
        for i, x in enumerate(xs):
            s.declare(x.name, [0, 1, 2])
            s.add(T.le(x, T.const(2)))
        assert s.check(timeout_s=1.0) is None

    def test_unconstrained_vars_filled(self):
        s = Solver()
        x, y = T.var("x", T.INT), T.var("y", T.INT)
        # Once x = 1 satisfies the disjunction, y is unconstrained and the
        # solver fills it without searching.
        s.add(T.or_(T.eq(x, T.const(1)), T.eq(y, T.const(5))))
        s.declare("x", [1, 0])
        s.declare("y", [5, 6])
        model = s.check()
        assert model["x"] == 1
        assert model["y"] in (5, 6)

    def test_priority_ordering(self):
        s = Solver()
        x, y = T.var("x", T.INT), T.var("y", T.INT)
        s.add(T.and_(T.eq(x, T.const(2)), T.eq(y, T.const(2))))
        s.declare("x", [0, 1, 2])
        s.declare("y", [0, 1, 2])
        model = s.check(priority=["y"])
        assert model["x"] == 2 and model["y"] == 2

    def test_timeout(self):
        s = Solver()
        xs = [T.var(f"x{i}", T.INT) for i in range(20)]
        # A parity-flavoured constraint that resists pruning.
        total = T.const(0)
        for x in xs:
            s.declare(x.name, list(range(4)))
            total = T.add(total, x)
        s.add(T.eq(total, T.const(1000)))  # unsat but needs search
        with pytest.raises(SolverTimeout):
            s.check(timeout_s=0.02)

    def test_undeclared_var_rejected(self):
        s = Solver()
        s.add(T.eq(T.var("ghost", T.INT), T.const(1)))
        with pytest.raises(ValueError):
            s.check()

    def test_empty_domain_rejected(self):
        s = Solver()
        with pytest.raises(ValueError):
            s.declare("x", [])
