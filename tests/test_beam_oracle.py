import numpy as np
import pytest

from memsmag import (
    BeamGeometry,
    LayerSpec,
    builtin_material,
    composite_section,
    convergence_order,
    max_anchor_stress,
    solve_static,
    tip_deflection,
)

SILICON = builtin_material("silicon")


def _beam(thickness=2e-6, length=300e-6, width=20e-6):
    return BeamGeometry(length, width, [LayerSpec(SILICON, thickness)])


def test_tip_force_matches_closed_form():
    geom = _beam()
    solution = solve_static(geom, grid_size=400, tip_force=1e-6)
    analytic = tip_deflection(composite_section(geom), geom.length, 1e-6)
    assert solution.tip_deflection == pytest.approx(analytic, rel=1e-2)
    assert solution.grid_size == 400
    assert len(solution.deflection) == 400


def test_tip_moment_matches_closed_form():
    # Quadratic deflection shape: the stencils reproduce it to roundoff.
    geom = _beam()
    section = composite_section(geom)
    moment = 1e-10
    solution = solve_static(geom, grid_size=400, tip_moment=moment)
    analytic = moment * geom.length**2 / (2.0 * section.flexural_rigidity)
    assert solution.tip_deflection == pytest.approx(analytic, rel=1e-6)


def test_zero_load_means_zero_deflection():
    solution = solve_static(_beam(), grid_size=100, tip_force=0.0)
    assert np.all(solution.deflection == 0.0)
    assert solution.anchor_stress == 0.0


def test_exactly_one_load_kind():
    with pytest.raises(ValueError):
        solve_static(_beam(), grid_size=100)
    with pytest.raises(ValueError):
        solve_static(_beam(), grid_size=100, tip_force=1e-6, tip_moment=1e-10)


def test_grid_size_floor():
    with pytest.raises(ValueError):
        solve_static(_beam(), grid_size=10, tip_force=1e-6)


def test_load_sign_symmetry():
    up = solve_static(_beam(), grid_size=100, tip_force=1e-6)
    down = solve_static(_beam(), grid_size=100, tip_force=-1e-6)
    assert np.array_equal(up.deflection, -down.deflection)


def test_anchor_stress_single_layer():
    geom = _beam(thickness=1.35e-6)
    solution = solve_static(geom, grid_size=400, tip_force=5e-9)
    analytic = max_anchor_stress(
        5e-9, geom.length, geom.width, geom.total_thickness, load_share_count=1
    )
    assert solution.anchor_stress == pytest.approx(analytic, rel=2e-2)


def test_moment_profile():
    geom = _beam()
    force = 1e-6
    solution = solve_static(geom, grid_size=400, tip_force=force)
    anchor = force * geom.length
    assert solution.bending_moment[0] == pytest.approx(anchor, rel=1e-3, abs=0)
    assert abs(solution.bending_moment[-1]) < 1e-3 * anchor

    # A tip moment bends the beam into an exact quadratic, so the moment
    # profile is flat up to solver roundoff, which grows with grid size.
    moment = 1e-10
    pure = solve_static(geom, grid_size=100, tip_moment=moment)
    assert np.max(np.abs(pure.bending_moment - moment)) < 1e-6 * moment


def test_convergence_order():
    order = convergence_order(_beam(), [100, 200, 400], tip_force=1e-6)
    assert 1.8 <= order <= 2.2
    assert order == pytest.approx(2.05, abs=0.02)


def test_convergence_order_load_scaling():
    one = convergence_order(_beam(), [100, 200, 400], tip_force=1e-6)
    seven = convergence_order(_beam(), [100, 200, 400], tip_force=7e-6)
    assert abs(one - seven) < 1e-9


def test_convergence_order_argument_checks():
    with pytest.raises(ValueError):
        convergence_order(_beam(), [100, 100, 200], tip_force=1e-6)
    with pytest.raises(ValueError):
        convergence_order(_beam(), [100, 200], tip_force=1e-6)
    with pytest.raises(ValueError):
        convergence_order(_beam(), [100, 200, 400], tip_force=0.0)


def test_composite_stack_deflection_matches_closed_form():
    geom = BeamGeometry(
        500e-6,
        20e-6,
        [
            LayerSpec(SILICON, 100e-9),
            LayerSpec(builtin_material("silicon_nitride"), 280e-9),
            LayerSpec(builtin_material("aluminum"), 1e-6),
        ],
    )
    solution = solve_static(geom, grid_size=400, tip_force=1e-9)
    analytic = tip_deflection(composite_section(geom), geom.length, 1e-9)
    assert solution.tip_deflection == pytest.approx(analytic, rel=1e-2, abs=0)
