"""Deterministic certificate rendering."""

import json

from clusterfrob import Certificate


def test_render_order_and_shape():
    c = Certificate("demo")
    c.add_input("quiver", "corpus:a2")
    c.add_witness("sink", 2)
    c.add_check("first", True)
    c.add_check("second", True)
    assert c.render() == (
        "certificate: demo\n"
        "input quiver: corpus:a2\n"
        "witness sink: 2\n"
        "check first: pass\n"
        "check second: pass\n"
        "result: PASS")


def test_failed_check_flips_result():
    c = Certificate("demo")
    c.add_check("good", True)
    c.add_check("bad", False, "saw 2, wanted 1")
    assert not c.passed
    text = c.render()
    assert "check bad: FAIL (saw 2, wanted 1)" in text
    assert text.endswith("result: FAIL")


def test_counterexample_block():
    c = Certificate("demo")
    c.add_check("thing", False)
    c.counterexample = "x1^2 + 1"
    assert "counterexample: x1^2 + 1" in c.render()


def test_json_omits_wall_time_and_keeps_order():
    c = Certificate("demo")
    c.add_input("b", 1)
    c.add_input("a", 2)
    c.add_check("z", True)
    data = json.loads(c.to_json())
    assert "wall_time" not in json.dumps(data)
    assert list(data["inputs"]) == ["b", "a"]
    assert data["result"] == "PASS"
    assert data["certificate"] == "demo"


def test_render_is_reproducible():
    def build():
        c = Certificate("demo")
        c.add_input("n", 3)
        c.add_witness("value", "1")
        c.add_check("ok", True)
        return c
    assert build().render() == build().render()
    assert build().to_json() == build().to_json()
