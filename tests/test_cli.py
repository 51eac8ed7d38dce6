import hashlib
import json
import os
import subprocess
import sys

import pytest

import fatpoints
from fatpoints.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def assert_error(capsys, *argv, message):
    """Invalid input exits 2 with one `error:` line instead of a traceback."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert "Traceback" not in captured.err


class TestVdim:
    def test_p4_class(self, capsys):
        cls = json.dumps({"n": 4, "r": 14, "d": 8, "m": [4] * 14})
        code, out = run(capsys, "vdim", cls)
        payload = json.loads(out)
        assert code == 0
        assert payload["vdim"] == 4 and payload["edim"] == 4

    def test_surface_cross_check(self, capsys):
        cls = json.dumps({"n": 2, "r": 0, "d": 1, "m": []})
        code, out = run(capsys, "vdim", cls)
        payload = json.loads(out)
        assert payload["vdim"] == 2
        assert payload["identity_holds"] is True

    def test_malformed_json(self, capsys):
        assert_error(capsys, "vdim", "{not json", message="malformed class JSON")

    def test_missing_file(self, capsys, tmp_path):
        assert_error(capsys, "vdim", "--file", str(tmp_path / "absent.json"),
                     message="absent.json")

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "cls.json"
        path.write_text(json.dumps({"n": 2, "r": 3, "d": 2, "m": [1, 1, 1]}))
        code, out = run(capsys, "vdim", "--file", str(path))
        assert code == 0
        assert json.loads(out)["vdim"] == 2


class TestReduce:
    def test_conic(self, capsys):
        cls = json.dumps({"n": 2, "r": 3, "d": 2, "m": [1, 1, 1]})
        code, out = run(capsys, "reduce", cls)
        payload = json.loads(out)
        assert payload["status"] == "Standard"
        assert payload["result"]["d"] == 1
        assert payload["trace_length"] == 1

    def test_exceptional(self, capsys):
        cls = json.dumps({"n": 2, "r": 3, "d": 0, "m": [0, 0, -1]})
        code, out = run(capsys, "reduce", cls)
        payload = json.loads(out)
        assert payload["status"] == "PseudostandardNegativeTail"
        assert payload["is_minus_one_class"] is True


class TestNef:
    def test_mori_dual_regime(self, capsys):
        cls = json.dumps({"n": 4, "r": 14, "d": 2, "m": [1] * 14})
        code, out = run(capsys, "nef", cls)
        payload = json.loads(out)
        assert code == 0
        assert payload["regime"] == "mori-dual"
        assert payload["nef"] is True and payload["in_cone"] is True

    def test_surface_regime(self, capsys):
        cls = json.dumps({"n": 2, "r": 10, "d": 10, "m": [3] * 10})
        code, out = run(capsys, "nef", cls, "--bound", "4")
        payload = json.loads(out)
        assert payload["regime"] == "surface-screen"
        assert payload["nef_up_to_bound"] is True
        assert payload["bound"] == 4

    def test_small_surface_uses_mori_dual(self, capsys):
        # r = 3 < 2^2, so the polyhedral regime applies even on a surface
        cls = json.dumps({"n": 2, "r": 3, "d": 1, "m": [1, 1, 0]})
        code, out = run(capsys, "nef", cls, "--bound", "2")
        payload = json.loads(out)
        assert payload["regime"] == "mori-dual"
        assert payload["nef"] is False and payload["in_cone"] is False

    def test_surface_failure_witness(self, capsys):
        cls = json.dumps({"n": 2, "r": 5, "d": 1, "m": [1, 1, 0, 0, 0]})
        code, out = run(capsys, "nef", cls, "--bound", "2")
        payload = json.loads(out)
        assert payload["regime"] == "surface-screen"
        assert payload["nef_up_to_bound"] is False
        assert "witness" in payload


class TestClassify:
    def test_h_two_points(self, capsys):
        cls = json.dumps({"n": 2, "r": 2, "d": 1, "m": [0, 0]})
        code, out = run(capsys, "classify", cls, "--bound", "4")
        payload = json.loads(out)
        assert code == 0
        assert payload["tag"] == "AsymptoticallyNonSpecial"
        assert payload["paPerp"]["upper"] == "5/4"
        assert payload["paPerp"]["verdict"] == "Zero"

    def test_verdict_json_shape(self, capsys):
        cls = json.dumps({"n": 2, "r": 10, "d": 10, "m": [3] * 10})
        code, out = run(capsys, "classify", cls, "--bound", "4",
                        "--seed", "1", "--seed", "2")
        payload = json.loads(out)
        assert set(payload) == {"tag", "paPerp", "bound"}
        assert set(payload["paPerp"]) == {"lower", "upper", "witnesses",
                                          "undecided", "verdict"}


class TestOrbit:
    def test_count_and_cache(self, capsys, tmp_path):
        code, out = run(capsys, "orbit", "9", "--bound", "3",
                        "--cache-dir", str(tmp_path))
        payload = json.loads(out)
        assert code == 0
        assert payload["count"] == 423
        cache = tmp_path / "orbit_n2_r9_b3.jsonl"
        assert cache.exists()
        header = json.loads(cache.read_text().splitlines()[0])
        assert header == {"bound": 3, "ctx": {"n": 2, "r": 9}, "format": 2,
                          "representatives": 4}

    def test_cache_reused(self, capsys, tmp_path):
        run(capsys, "orbit", "5", "--bound", "2", "--cache-dir", str(tmp_path))
        stamp = (tmp_path / "orbit_n2_r5_b2.jsonl").stat().st_mtime_ns
        run(capsys, "orbit", "5", "--bound", "2", "--cache-dir", str(tmp_path))
        assert (tmp_path / "orbit_n2_r5_b2.jsonl").stat().st_mtime_ns == stamp

    def test_cache_write_fault_is_not_invalid_input(self, tmp_path):
        # Exit 2 means invalid input; a cache directory that cannot be
        # created is an I/O fault and propagates as one.
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(OSError):
            main(["orbit", "7", "--bound", "3", "--cache-dir", str(blocker)])


class TestOrbitGolden:
    """SHA-256 of the stdout of the full-expansion implementation of `orbit`."""

    GOLDEN = {
        ("7", "5", True): "7af1066c5dc05fc930d03b84bd79d03ce2a6b9c04198be3fa5bd4b59dcad3209",
        ("9", "6", True): "b4a17e74c8f093f33b2ebeddea4363969d3f480d4a6263bf68fee81c806619f5",
        ("12", "4", False): "99fd8c0781f90b25998b9613cbd8addf6a4ae8f6f5133e12f1976bc78b2b13ad",
    }

    @staticmethod
    def argv(r, bound, listed):
        return ["orbit", r, "--bound", bound] + (["--list"] if listed else [])

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_stdout_byte_identical(self, capsys, key):
        code, out = run(capsys, *self.argv(*key))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[key]

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_cached_stdout_byte_identical(self, capsys, tmp_path, key):
        r, bound, _ = key
        path = json.dumps(str(tmp_path / f"orbit_n2_r{r}_b{bound}.jsonl"))
        for _ in ("write", "read"):
            code, out = run(capsys, *self.argv(*key), "--cache-dir", str(tmp_path))
            assert code == 0
            out = out.replace(f'"cache_file": {path}', '"cache_file": null')
            assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[key]


class TestStdoutGolden:
    """SHA-256 of the stdout of runs through the torsion sampler (and its
    modular square roots), the quadratic null family and the Fincke-Pohst
    walk, taken from the implementation that computed square roots and
    primality with sympy."""

    WITNESS = json.dumps({"n": 2, "r": 14, "d": 195, "m": [91] + [46] * 13})
    GOLDEN = {
        "ex-mix": (("demo", "ex-mix"),
                   "72b0ef2ddf2eb2535ad890e582b39f58c6fe9ad377f2aaf1b33760d69883e6dc"),
        "quad-family": (("demo", "quad-family"),
                        "a83f105950f5dd580572a2f12d480a69a2e7b43554ac8faac711229de7024ce0"),
        "classify-195H": (("classify", WITNESS, "--bound", "5"),
                          "176fc71b6b37fe6e5d7376c3d176b566b95c1ab0cf4f2688a37258434db3e40f"),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_stdout_byte_identical(self, capsys, name):
        argv, digest = self.GOLDEN[name]
        code, out = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sympy_not_loaded():
    src = os.path.dirname(os.path.dirname(fatpoints.__file__))
    code = ("import sys, fatpoints.cli\n"
            "from fatpoints.oracle import sample_cubic_torsion\n"
            "sample_cubic_torsion(65537, 1)\n"
            "print('sympy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.strip() == "False"


class TestLibraryErrors:
    def test_negative_point_count(self, capsys):
        assert_error(capsys, "orbit", "-1", message="number of points r")

    def test_reduce_without_cremona_root(self, capsys):
        cls = json.dumps({"n": 2, "r": 2, "d": 1, "m": [1, 0]})
        assert_error(capsys, "reduce", cls, message="at least 3 points")

    def test_classify_fails_nef_screen(self, capsys):
        cls = json.dumps({"n": 2, "r": 5, "d": 1, "m": [1, 1, 0, 0, 0]})
        assert_error(capsys, "classify", cls, "--bound", "2",
                     message="failed nef screening")


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys):
        cls = json.dumps({"n": 2, "r": 9, "d": 3, "m": [1] * 9})
        _, first = run(capsys, "classify", cls.replace("3", "4", 1), "--bound", "3")
        _, second = run(capsys, "classify", cls.replace("3", "4", 1), "--bound", "3")
        assert first == second

    def test_rationals_normalized(self, capsys):
        cls = json.dumps({"n": 2, "r": 2, "d": "4/2", "m": ["2/2", "-2/4"]})
        code, out = run(capsys, "vdim", cls)
        payload = json.loads(out)
        assert code == 0
        assert payload["class"]["d"] == 2
        assert payload["class"]["m"] == [1, "-1/2"]
        assert "vdim" not in payload  # binomial form undefined here
        # (D^2 - D.K)/2 = (11/4 + 11/2)/2 computed by hand
        assert payload["vdim_quadratic"] == "33/8"


class TestConfigPrecedence:
    def test_file_then_flags(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"orbit_bound": 2, "output": "json"}))
        cls = json.dumps({"n": 2, "r": 10, "d": 10, "m": [3] * 10})
        _, out = run(capsys, "nef", cls, "--config", str(config))
        assert json.loads(out)["bound"] == 2
        _, out = run(capsys, "nef", cls, "--config", str(config), "--bound", "6")
        assert json.loads(out)["bound"] == 6

    def test_bad_prime_rejected(self, capsys):
        cls = json.dumps({"n": 2, "r": 2, "d": 1, "m": [0, 0]})
        assert_error(capsys, "classify", cls, "--prime", "15",
                     message="--prime 15 is not prime")

    def test_prime_beyond_int64_range_rejected(self, capsys):
        cls = json.dumps({"n": 2, "r": 2, "d": 1, "m": [0, 0]})
        assert_error(capsys, "classify", cls, "--prime", str(2 ** 61 - 1),
                     message="below 2^31")

    @pytest.mark.parametrize("data, message", [
        ({"prime": "65537"}, "prime must be an integer"),
        ({"orbit_bound": True}, "orbit_bound must be an integer"),
        ({"genus_threshold": 1.0}, "genus_threshold must be an integer"),
        ({"seeds": "12"}, "seeds must be a list of integers"),
        ({"seeds": [1, False]}, "seeds must be a list of integers"),
        ({"seeds": []}, "need at least one seed"),
        ({"cache_dir": 5}, "cache_dir must be a string or null"),
        ([1, 2], "--config must hold a JSON object"),
    ], ids=["prime", "orbit_bound", "genus_threshold", "seeds", "seed", "no-seeds",
            "cache_dir", "not-an-object"])
    def test_config_value_types_checked(self, capsys, tmp_path, data, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        cls = json.dumps({"n": 2, "r": 2, "d": 1, "m": [0, 0]})
        assert_error(capsys, "vdim", cls, "--config", str(config), message=message)

    def test_missing_config(self, capsys, tmp_path):
        cls = json.dumps({"n": 2, "r": 2, "d": 1, "m": [0, 0]})
        assert_error(capsys, "vdim", cls, "--config", str(tmp_path / "absent.json"),
                     message="absent.json")


class TestDemos:
    def test_lemma_std_passes(self, capsys):
        code, out = run(capsys, "demo", "lemma-std")
        payload = json.loads(out)
        assert code == 0
        assert payload["counts"]["Counterexample"] == 0
        assert payload["checked"] > 100

    def test_orbit_check_passes(self, capsys):
        code, out = run(capsys, "demo", "orbit-check")
        payload = json.loads(out)
        assert code == 0
        assert payload["sound"] and payload["complete"]

    def test_quad_family_passes(self, capsys):
        code, out = run(capsys, "demo", "quad-family")
        payload = json.loads(out)
        assert code == 0
        assert payload["random_checked"] == 100
        assert payload["nef_screen_bound_10"] is True

    def test_ex_mix_keeps_the_prime(self, capsys):
        # the torsion sampler counts points exhaustively; a large prime is
        # refused rather than silently replaced by 65537
        assert_error(capsys, "demo", "ex-mix", "--prime", "2147483647",
                     message="use a prime <= 2^20")

    def test_unknown_demo_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["demo", "definitely-not-a-demo"])

    def test_csv_format(self, capsys):
        code, out = run(capsys, "demo", "lemma-std", "--format", "text")
        assert code == 0
        assert "Counterexample: 0" in out
