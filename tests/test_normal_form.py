"""The degenerate normal form has one vectorised routine per step: the
radicals (`forms.radical_lines`, `forms.radical_points`), the pencil basis
and block (`cfsets.pencil_normal_form`) and the cone block
(`classify.cone_blocks`).  The census verifiers run them at K rows and
`classify_plane_form` at K = 1.  Here K sampled rows are compared with the
scalar references: `forms.radicals` for the radicals and, for the blocks,
the congruent matrix of `forms.congruence_transform`."""

import ast
import pathlib

import numpy as np
import pytest

import sigmaconics
from sigmaconics.census import _join, _samples, sample_matrix_entries
from sigmaconics.cfsets import pencil_normal_form
from sigmaconics.classify import cone_blocks
from sigmaconics.fields import build_field
from sigmaconics.forms import (SesquiForm, congruence_transform, radical_lines,
                               radical_points, radicals)
from sigmaconics.linalg import cross3, mat_det, normalize, vranks
from sigmaconics.projective import projective_space

TOWERS = [build_field(2, 1, 2, 1), build_field(2, 1, 3, 1), build_field(3, 1, 2, 1),
          build_field(3, 1, 3, 1), build_field(2, 2, 3, 1)]
ROWS = 200
PACKAGE = pathlib.Path(sigmaconics.__file__).parent


def _ids(t):
    return f"T{t.order}"


def _form(t, row) -> SesquiForm:
    e = [int(x) for x in row]
    return SesquiForm(t, (e[0:3], e[3:6], e[6:9]))


def _congruent(t, row, columns) -> tuple:
    """The matrix M^T A M^sigma, M the matrix with the given columns."""
    return congruence_transform(_form(t, row), tuple(zip(*columns))).matrix


def _of_rank(t, rank, seed):
    return _join(list(_samples(t, ROWS, seed, lambda ranks: ranks == rank)))[0]


@pytest.mark.parametrize("t", TOWERS, ids=_ids)
def test_radical_lines_match_scalar_radicals(t):
    # rank-1 matrices are the outer products c r^T of nonzero vectors
    v = sample_matrix_entries(t.order, 31, 0, 2 * ROWS)
    v = v[v[:, :3].any(axis=1) & v[:, 3:6].any(axis=1)][:ROWS]
    e = t.vmul(v[:, :3, None], v[:, None, 3:6]).reshape(-1, 9)
    assert len(e) == ROWS and (vranks(t, e.reshape(-1, 3, 3)) == 1).all()
    right, left = radical_lines(projective_space(t, 2), e)
    for row, r_line, l_line in zip(e, right.tolist(), left.tolist()):
        rad = radicals(_form(t, row))
        assert rad.rank == 1
        assert tuple(r_line) == normalize(t, cross3(t, *rad.right))
        assert tuple(l_line) == normalize(t, cross3(t, *rad.left))


@pytest.mark.parametrize("t", TOWERS, ids=_ids)
def test_radical_points_and_pencil_blocks_match_congruence(t):
    e = _of_rank(t, 2, 32)
    v_r, v_l = radical_points(projective_space(t, 2), e)
    distinct = ~(v_r == v_l).all(axis=1)
    mid, block, normal = pencil_normal_form(t, e[distinct], v_r[distinct],
                                            v_l[distinct])
    assert normal.all()
    # the left radical is never a right one: the swapped basis is not normal
    assert not pencil_normal_form(t, e[distinct], v_l[distinct], v_r[distinct])[2].any()
    for row, r, l in zip(e, v_r.tolist(), v_l.tolist()):
        rad = radicals(_form(t, row))
        assert tuple(r) == normalize(t, rad.right[0])
        assert tuple(l) == normalize(t, rad.left[0])
    basis = zip(v_r[distinct].tolist(), mid.tolist(), v_l[distinct].tolist())
    for row, cols, blk in zip(e[distinct], basis, block.tolist()):
        assert mat_det(t, tuple(zip(*cols))) != 0
        b = _congruent(t, row, cols)
        # pencil normal form: zero first column and zero last row
        assert not any(b[i][0] for i in range(3)) and not any(b[2])
        assert blk == [b[0][1], b[0][2], b[1][1], b[1][2]]
    assert distinct.sum() >= ROWS * 3 // 4


@pytest.mark.parametrize("t", TOWERS, ids=_ids)
def test_cone_blocks_match_congruence(t):
    # cones M^T A M^sigma of the cone layout (vertex (1,0,0)) under sampled
    # invertible M; their radical points are both M^-1 (1,0,0)
    layout = sample_matrix_entries(t.order, 33, 0, 4 * ROWS)[:, :4]
    layout = layout[t.vsub(t.vmul(layout[:, 0], layout[:, 3]),
                           t.vmul(layout[:, 1], layout[:, 2])) != 0][:ROWS]
    moves = _of_rank(t, 3, 34)
    e = []
    for blk, m in zip(layout.tolist(), moves.tolist()):
        a = (0, 0, 0, 0, blk[0], blk[1], 0, blk[2], blk[3])
        e.append(_congruent(t, a, (m[0:3], m[3:6], m[6:9])))
    e = np.array(e, dtype=np.uint32).reshape(-1, 9)
    assert len(e) == ROWS
    v_r, v_l = radical_points(projective_space(t, 2), e)
    assert (v_r == v_l).all()
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for row, vertex, blk in zip(e, v_r.tolist(), cone_blocks(e, v_r).tolist()):
        rad = radicals(_form(t, row))
        assert tuple(vertex) == normalize(t, rad.right[0]) == normalize(t, rad.left[0])
        # the reference complement: the first pair of standard vectors that
        # spans the plane with the vertex
        pair = next((u, w) for i, u in enumerate(ident) for w in ident[i + 1:]
                    if mat_det(t, (tuple(vertex), u, w)) != 0)
        b = _congruent(t, row, (vertex, *pair))
        assert not any(b[0]) and not any(b[i][0] for i in range(3))
        assert blk == [b[1][1], b[1][2], b[2][1], b[2][2]]


def test_only_forms_calls_scalar_radicals():
    """`forms.radicals` is the scalar reference of the batch radicals; no
    library path calls it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "forms.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "radicals"]
    assert found == []
