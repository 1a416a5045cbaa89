"""Tests for ParamEnv matching and annotation-target symbolization."""

from __future__ import annotations

import pytest

from repro.cachier.mapping import ParamEnv, symbolize
from repro.errors import CachierError, LabelError
from repro.lang.ast import Bin, Const, Param
from repro.lang.unparse import target_str
from repro.mem.labels import ArrayLabel
from repro.mem.layout import AddressSpace


def env_of(params_by_node):
    return ParamEnv(lambda n: params_by_node[n], len(params_by_node))


def label_2d(shape=(8, 8), order="C"):
    space = AddressSpace(block_size=32)
    from math import prod

    region = space.allocate("A", prod(shape) * 8)
    return ArrayLabel(region=region, shape=shape, elem_size=8, order=order)


class TestParamEnv:
    def test_me_is_implicit(self):
        env = env_of([{}, {}])
        assert env.value(1, "me") == 1

    def test_bad_node_count(self):
        with pytest.raises(CachierError):
            ParamEnv(lambda n: {}, 0)

    def test_unknown_parameter_names_node_and_param(self):
        env = env_of([{"L": 0}, {"L": 4}])
        with pytest.raises(CachierError, match=r"node 1 has no parameter 'U'"):
            env.value(1, "U")

    def test_unknown_node_names_valid_range(self):
        env = env_of([{"L": 0}, {"L": 4}])
        with pytest.raises(CachierError, match=r"node 5 \(have nodes 0\.\.1\)"):
            env.value(5, "L")

    def test_match_constant(self):
        env = env_of([{"L": 0}, {"L": 4}])
        assert env.match_values({0: 7, 1: 7}) == Const(7)

    def test_match_param(self):
        env = env_of([{"L": 0}, {"L": 4}])
        assert env.match_values({0: 0, 1: 4}) == Param("L")

    def test_match_param_plus_one(self):
        env = env_of([{"U": 3}, {"U": 7}])
        matched = env.match_values({0: 4, 1: 8})
        assert matched == Bin("+", Param("U"), Const(1))

    def test_match_param_minus_one(self):
        env = env_of([{"L": 4}, {"L": 8}])
        matched = env.match_values({0: 3, 1: 7})
        assert matched == Bin("-", Param("L"), Const(1))

    def test_no_match(self):
        env = env_of([{"L": 0}, {"L": 4}])
        assert env.match_values({0: 1, 1: 9}) is None

    def test_eval_expr(self):
        env = env_of([{"L": 2}])
        assert env.eval_expr(0, Bin("+", Param("L"), Const(3))) == 5
        assert env.eval_expr(0, Param("missing")) is None
        assert env.eval_expr(0, Bin("-", Param("L"), Param("missing"))) is None


class TestSymbolize:
    def test_whole_array(self):
        label = label_2d()
        env = env_of([{}, {}])
        flats = {0: set(range(64)), 1: set(range(64))}
        sym = symbolize(label, flats, env)
        assert sym is not None
        assert target_str(sym.target) == "A[0:7, 0:7]"
        assert sym.max_bytes == 64 * 8

    def test_per_node_blocks_match_params(self):
        label = label_2d()
        env = env_of(
            [{"Lj": 0, "Uj": 3}, {"Lj": 4, "Uj": 7}]
        )
        flats = {
            0: {i * 8 + j for i in range(8) for j in range(0, 4)},
            1: {i * 8 + j for i in range(8) for j in range(4, 8)},
        }
        sym = symbolize(label, flats, env)
        assert sym is not None
        assert target_str(sym.target) == "A[0:7, Lj:Uj]"

    def test_singleton_dimension(self):
        label = label_2d()
        env = env_of([{"R": 2}, {"R": 5}])
        flats = {0: {2 * 8 + j for j in range(8)},
                 1: {5 * 8 + j for j in range(8)}}
        sym = symbolize(label, flats, env)
        assert target_str(sym.target) == "A[R, 0:7]"

    def test_strided_set(self):
        label = label_2d(shape=(64,))
        env = env_of([{}])
        flats = {0: set(range(0, 64, 2))}
        sym = symbolize(label, flats, env)
        assert target_str(sym.target) == "A[0:62:2]"

    def test_strided_set_with_a_moved_element_fails(self):
        # first step 2 and span 6 match 0:6:2, but 3 is off the stride
        label = label_2d(shape=(64,))
        env = env_of([{}])
        assert symbolize(label, {0: {0, 2, 3, 6}}, env) is None

    def test_flat_index_out_of_range_raises(self):
        label = label_2d()
        env = env_of([{}])
        with pytest.raises(LabelError, match="flat index 64 out of bounds"):
            symbolize(label, {0: {0, 1, 64}}, env)

    def test_non_rectangular_fails(self):
        label = label_2d()
        env = env_of([{}])
        flats = {0: {0, 9}}  # (0,0) and (1,1): not a rectangle
        assert symbolize(label, flats, env) is None

    def test_unmatchable_bounds_fail(self):
        label = label_2d()
        env = env_of([{"L": 0}, {"L": 1}])
        flats = {0: {0}, 1: {5 * 8}}  # rows 0 and 5: no param matches
        assert symbolize(label, flats, env) is None

    def test_mixed_steps_fail(self):
        label = label_2d(shape=(64,))
        env = env_of([{}, {}])
        flats = {0: set(range(0, 8, 2)), 1: set(range(0, 9, 4))}
        assert symbolize(label, flats, env) is None

    def test_empty_participation(self):
        label = label_2d()
        env = env_of([{}])
        assert symbolize(label, {0: set()}, env) is None

    def test_nonparticipating_nodes_ignored(self):
        label = label_2d(shape=(16,))
        env = env_of([{}, {}])
        flats = {0: set(range(16)), 1: set()}
        sym = symbolize(label, flats, env)
        assert sym is not None and target_str(sym.target) == "A[0:15]"
