"""The CLI's forecast row cache: entries keyed by the sha256 of a forecast's
bytes, under $XDG_CACHE_HOME/quakeresid (a fresh directory per test, see
conftest.py)."""

import dataclasses
import hashlib
import os
import pathlib

import numpy as np
import pytest

from quakeresid import cli, forecasts, parse_forecast
from quakeresid.manifest import TOOLKIT_VERSION

ROW = "0 0.5 0 0.5 0 30 3.95 4.05 0.1 1"
ROW2 = ROW.replace("0.5 0 0.5", "0.5 0.5 1")
FORECAST = ROW + "\n" + ROW2 + "\n"
CATALOG = "time,lon,lat,depth,mag\n2007-01-01T00:00:00Z,0.25,0.25,5,4.0\n"


def _cache_dir():
    return os.path.join(os.environ["XDG_CACHE_HOME"], "quakeresid")


def _entry(data: bytes) -> str:
    digest = hashlib.sha256(data).hexdigest()
    return os.path.join(_cache_dir(), f"rows-{TOOLKIT_VERSION}-{digest}.npy")


def _bits(value):
    """A forecast, grid, array or scalar as comparable bits, field by field."""
    if dataclasses.is_dataclass(value):
        return {f.name: _bits(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    return type(value), value


def _no_read(data):
    raise AssertionError("a cache hit read the rows again")


@pytest.mark.parametrize("text", [
    ROW + "\r\n" + ROW2 + "\r\n",
    "−0.5 0 0 0.5 0 30 3.95 4.05 0.1 1\n",
    ROW.replace("0.1 1", "1e−1 1"),
    "# header\n" + ROW + "  # trailing\n# end\n",
    "# Kagan–Jackson ∑\n" + FORECAST,
    # the line reader decides these
    ROW + "\r" + ROW2 + "\n",
    ROW + "\x1c" + ROW2,
    ROW + "\u2028" + ROW2,
    "# only a comment\n",
    "",
], ids=["crlf", "minus-sign", "minus-exponent", "comments", "utf8-comment",
        "lone-cr", "file-separator", "line-separator", "comment-only", "empty"])
@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "by-line"])
def test_hit_matches_a_fresh_parse_bit_for_bit(text, bulk, monkeypatch):
    data = text.encode("utf-8")
    if not bulk:
        monkeypatch.setattr(forecasts, "_bulk_rows", lambda data: None)
    fresh = _bits(parse_forecast(data))
    digest = hashlib.sha256(data).hexdigest()
    assert _bits(cli.parse_forecast(data, digest)) == fresh
    assert os.path.exists(_entry(data))
    monkeypatch.setattr(cli, "read_rows", _no_read)
    assert _bits(cli.parse_forecast(data, digest)) == fresh


@pytest.mark.parametrize("text, message", [
    ("\ufeff" + ROW + "\n", "line 1: could not convert string to float"),
    (ROW + "\n# note\n" + ROW.replace("0.1 1", "-0.1 1") + "\n",
     "line 3: negative rate -0.1"),
    (FORECAST + ROW + "\n", "line 3: duplicate (pixel, magnitude-bin) key"),
    (ROW + "\n\n" + ROW2.replace("3.95", "nan") + "\n",
     "line 3: magnitude bin edges must be numbers, got nan and 4.05"),
    (ROW + "\n# note\n" + ROW2.replace("0.1 1", "nan 1") + "\n",
     "line 3: rate nan is not finite"),
    (ROW.replace("0.1 1", "inf 1") + "\n", "line 1: rate inf is not finite"),
], ids=["byte-order-mark", "negative-rate", "duplicate-key", "nan-mag-lo",
        "nan-rate", "infinite-rate"])
def test_bad_forecast_names_its_line_twice_and_leaves_no_entry(
        text, message, tmp_path, capsys):
    fc, cat = tmp_path / "fc.txt", tmp_path / "cat.csv"
    fc.write_text(text, encoding="utf-8")
    cat.write_text(CATALOG)
    args = ["ntest", "--forecast", str(fc), "--catalog", str(cat),
            "--analytic"]
    errors = []
    for _ in range(2):
        assert cli.main(args) == 3
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: " + message)
    assert not os.path.exists(_cache_dir()) or not os.listdir(_cache_dir())


def _simulate(tmp_path, name):
    out = tmp_path / name
    assert cli.main(["simulate", "--forecast", str(tmp_path / "fc.txt"),
                     "--seed", "3", "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("spoil", [
    lambda path, rows: path.write_bytes(path.read_bytes()[:200]),
    lambda path, rows: np.save(path, rows[:, :9]),
    lambda path, rows: np.save(path, rows.astype(np.float32)),
    lambda path, rows: np.save(path, np.array([{"rows": 1}], dtype=object),
                               allow_pickle=True),
    lambda path, rows: path.write_bytes(b""),
], ids=["truncated", "wrong-shape", "float32", "pickled-object", "empty"])
def test_bad_entry_is_a_miss_and_rewritten(spoil, tmp_path, monkeypatch):
    (tmp_path / "fc.txt").write_text(FORECAST)
    cold = _simulate(tmp_path, "cold.csv")
    path = pathlib.Path(_entry(FORECAST.encode()))
    rows = np.load(path)
    spoil(path, rows)
    assert _simulate(tmp_path, "spoiled.csv") == cold
    good = np.load(path, allow_pickle=False)
    assert good.dtype == np.float64 and good.tobytes() == rows.tobytes()
    monkeypatch.setattr(cli, "read_rows", _no_read)
    assert _simulate(tmp_path, "warm.csv") == cold


def test_cache_directory_is_private(tmp_path):
    (tmp_path / "fc.txt").write_text(FORECAST)
    _simulate(tmp_path, "out.csv")
    assert os.stat(_cache_dir()).st_mode & 0o777 == 0o700
    assert os.listdir(_cache_dir()) == [os.path.basename(
        _entry(FORECAST.encode()))]


def test_file_in_place_of_cache_directory_parses_as_without_cache(
        tmp_path, monkeypatch):
    (tmp_path / "fc.txt").write_text(FORECAST)
    cached = _simulate(tmp_path, "cached.csv")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home"))
    (tmp_path / "home").mkdir()
    (tmp_path / "home" / "quakeresid").write_text("not a directory")
    for name in ("first.csv", "second.csv"):
        assert _simulate(tmp_path, name) == cached
    assert (tmp_path / "home" / "quakeresid").read_text() == "not a directory"


def _parse(text: str) -> str:
    """Parse text through the cache; the path of its entry."""
    data = text.encode()
    cli.parse_forecast(data, hashlib.sha256(data).hexdigest())
    return _entry(data)


def test_eviction_keeps_the_cache_under_its_bound(monkeypatch):
    texts = [FORECAST.replace("0.1 1", f"0.{k} 1") for k in range(1, 8)]
    paths = [_entry(text.encode()) for text in texts]
    monkeypatch.setattr(cli, "CACHE_MAX_BYTES",
                        3 * os.path.getsize(_parse(texts[0])))

    def names():
        found = os.listdir(_cache_dir())
        assert sum(os.path.getsize(os.path.join(_cache_dir(), name))
                   for name in found) <= cli.CACHE_MAX_BYTES
        return sorted(found)

    def last_used(*order):
        # set mtimes whatever the file system's clock resolution
        for t, k in enumerate(order):
            os.utime(paths[k], (t, t))

    for k in range(6):
        last_used(*range(max(0, k - 3), k))
        _parse(texts[k])
        assert names() == sorted(os.path.basename(p)
                                 for p in paths[max(0, k - 2):k + 1])
    # a hit touches its entry, so the least recently used one goes next
    last_used(3, 4, 5)
    with monkeypatch.context() as m:
        m.setattr(cli, "read_rows", _no_read)
        _parse(texts[3])
    _parse(texts[6])
    assert names() == sorted(os.path.basename(paths[k]) for k in (3, 5, 6))
