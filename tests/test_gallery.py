import pytest

from exactsdp import gallery


def test_worked_example_matrix_entries():
    a, b, c = gallery.ex61_matrices()
    assert a.to_dense()[0, 0] == 2.0 and a.to_dense()[0, 1] == 1.0
    assert b.to_dense()[0, 3] == -1.0
    assert c.to_dense()[2, 2] == -3.0


def test_fig1_combo_registry():
    assert set(gallery.FIG1_COMBOS) == {"fig1-b1b2b3", "fig1-b1b6",
                                        "fig1-b1b3b5", "fig1-b2b4"}


def test_fig2_has_ten_members():
    members = gallery.fig2_members()
    assert len(members) == 10
    # eight ring disks, the unit disk, and the outer complement
    assert members[8].to_dense().tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    assert members[9].to_dense().tolist() == [[-1, 0, 0], [0, -1, 0], [0, 0, 4]]


def test_ball_case_member_count():
    case = gallery.build_case("ex6.2-ball")
    assert len(case.problem.bset.members) == 25


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        gallery.build_case("nope")


def test_run_acceptance_all_cases_pass():
    report = gallery.run_acceptance()
    assert len(report) == len(gallery.list_cases())
    failed = [r for r in report if not r["passed"]]
    assert not failed, failed
    for r in report:
        for c in r["checks"]:
            assert c["tag"] in ("published", "derived", "trivial")


def test_run_acceptance_reports_errors_instead_of_raising():
    report = gallery.run_acceptance(ids=["no-such-case"])
    assert len(report) == 1 and not report[0]["passed"]
