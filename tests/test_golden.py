"""Golden digests of every CLI command on a small fixture built here.

Each case runs one command in-process and hashes every file it writes and
its stdout.  Manifests are compared by key() (the timestamp excluded) with
input paths reduced to base names.  Seeded outputs are part of the
contract: a change that moves any digest changes what a command writes,
and must bump TOOLKIT_VERSION and say why.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from quakeresid import cli
from quakeresid.cli import main

# 4x4 half-degree pixels over [0, 2]^2, two magnitude bins per pixel; pixel
# (ix 3, iy 0) is masked out of A, and B masks (ix 0, iy 3) instead
_RATES_A = np.linspace(0.6, 3.0, 16).reshape(4, 4)
_RATES_B = _RATES_A[::-1, ::-1] * 1.1
_MASKED_A = (3, 0)
_MASKED_B = (0, 3)


def _forecast_text(rates, masked):
    rows = ["# golden fixture"]
    for iy in range(4):
        for ix in range(4):
            flag = 0 if (ix, iy) == masked else 1
            for lo, share in ((3.95, 0.7), (4.05, 0.3)):
                rows.append("%g %g %g %g 0 30 %g %g %.6f %d" % (
                    0.5 * ix, 0.5 * ix + 0.5, 0.5 * iy, 0.5 * iy + 0.5,
                    lo, lo + 0.1, rates[iy, ix] * share, flag))
    return "\n".join(rows) + "\n"


_OFFSETS = ["Z", "+01:00", "-05:30", "", "+00:00", "-08:00"]


def _catalog_text():
    rng = np.random.default_rng(20121)
    rows = []
    n = 0
    while n < 36:
        x, y = rng.uniform(0.0, 2.0, 2)
        # keep kept events out of both masked pixels
        if (int(x / 0.5), int(y / 0.5)) in (_MASKED_A, _MASKED_B):
            continue
        month, day = rng.integers(1, 13), rng.integers(1, 29)
        sec = rng.uniform(0, 60)
        stamp = "%d-%02d-%02dT%02d:%02d:%09.6f%s" % (
            2006 + n % 5, month, day, rng.integers(0, 24),
            rng.integers(0, 60), sec, _OFFSETS[n % len(_OFFSETS)])
        rows.append("%s,%.6f,%.6f,%.2f,%.2f" % (
            stamp, x, y, rng.uniform(0, 25), 4.0 + 0.1 * rng.integers(0, 20)))
        n += 1
    rows += [
        # one instant written three ways: ties keep their file order
        "2008-07-01T12:00:00+02:00,0.30,0.40,5,4.2",
        "2008-07-01T10:00:00Z,0.35,0.45,6,4.3",
        "2008-07-01T05:00:00-05:00,0.40,0.50,7,4.4",
        # one row per drop reason, and the year-1 row with an offset
        "2007-01-01T00:00:00Z,0.7,0.7,5,3.5",
        "2011-01-01T00:00:00Z,0.7,0.7,5,4.5",
        "0001-01-01T00:00:00+01:00,0.7,0.7,5,4.5",
        "2007-02-01T00:00:00Z,0.7,0.7,45,4.5",
        "2007-03-01T00:00:00Z,2.7,0.7,5,4.5",
        "2007-04-01T00:00:00Z,1.7,0.2,−1.0,4.5",
    ]
    return "time,lon,lat,depth,mag\n" + "\n".join(rows) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_inputs")
    paths = {"fa": d / "fa.txt", "fb": d / "fb.txt", "cat": d / "cat.csv"}
    paths["fa"].write_text(_forecast_text(_RATES_A, _MASKED_A))
    paths["fb"].write_text(_forecast_text(_RATES_B, _MASKED_B))
    paths["cat"].write_text(_catalog_text())
    return {k: str(v) for k, v in paths.items()}


K = ["--rmax", "0.5", "--dr", "0.05"]
CASES = {
    "ntest-analytic": ["ntest", "--forecast", "{fa}", "--catalog", "{cat}",
                       "--analytic", "--out", "{out}/score.json"],
    "ntest-sims": ["ntest", "--forecast", "{fa}", "--catalog", "{cat}",
                   "--sims", "60", "--seed", "3", "--window-fraction", "0.5"],
    "ltest": ["ltest", "--forecast", "{fa}", "--catalog", "{cat}",
              "--sims", "60", "--seed", "4", "--out", "{out}/score.json"],
    "resid-raw": ["resid", "--forecast", "{fa}", "--catalog", "{cat}",
                  "--kind", "raw", "--out", "{out}/r.csv",
                  "--svg", "{out}/r.svg"],
    "resid-pearson": ["resid", "--forecast", "{fa}", "--catalog", "{cat}",
                      "--kind", "pearson", "--out", "{out}/r.csv",
                      "--svg", "{out}/r.svg"],
    "resid-deviance": ["resid", "--forecast-a", "{fa}", "--forecast-b", "{fb}",
                       "--catalog", "{cat}", "--kind", "deviance",
                       "--window-fraction", "0.8", "--out", "{out}/r.csv",
                       "--svg", "{out}/r.svg"],
    "k-plain": ["k", "--forecast", "{fa}", "--catalog", "{cat}", *K,
                "--out", "{out}/k.csv", "--svg", "{out}/k.svg"],
    "k-weighted-isotropic": ["k", "--forecast", "{fa}", "--catalog", "{cat}",
                             "--weighted", "--edge", "isotropic", *K,
                             "--out", "{out}/k.csv", "--svg", "{out}/k.svg"],
    "transform-rescale-horizontal": [
        "transform", "--forecast", "{fa}", "--catalog", "{cat}",
        "--kind", "rescale", "--assess", "--sims", "19", "--seed", "6", *K,
        "--out", "{out}/t.csv", "--svg", "{out}/t.svg"],
    "transform-rescale-vertical": [
        "transform", "--forecast", "{fa}", "--catalog", "{cat}",
        "--kind", "rescale", "--axis", "vertical", "--assess", "--sims", "19",
        "--seed", "6", *K, "--out", "{out}/t.csv", "--svg", "{out}/t.svg"],
    "transform-rescale-stdout": [
        "transform", "--forecast", "{fa}", "--catalog", "{cat}",
        "--kind", "rescale"],
    "transform-thin": ["transform", "--forecast", "{fa}", "--catalog", "{cat}",
                       "--kind", "thin", "--seed", "7", "--assess", *K,
                       "--out", "{out}/t.csv", "--svg", "{out}/t.svg"],
    "transform-thin-approx": [
        "transform", "--forecast", "{fa}", "--catalog", "{cat}",
        "--kind", "thin-approx", "--k-count", "8", "--seed", "8",
        "--out", "{out}/t.csv"],
    "transform-superpose": [
        "transform", "--forecast", "{fa}", "--catalog", "{cat}",
        "--kind", "superpose", "--seed", "9", "--assess", *K,
        "--edge", "isotropic", "--out", "{out}/t.csv"],
    "transform-superthin": [
        "transform", "--forecast", "{fa}", "--catalog", "{cat}",
        "--kind", "superthin", "--k-rate", "6", "--seed", "10", "--assess",
        *K, "--out", "{out}/t.csv", "--svg", "{out}/t.svg"],
    "simulate": ["simulate", "--forecast", "{fa}", "--seed", "11",
                 "--out", "{out}/sim.csv"],
    "simulate-stdout": ["simulate", "--forecast", "{fb}", "--seed", "12",
                        "--mag-min", "4.05", "--window-fraction", "0.25"],
    "report": ["report", "--forecast", "{fa}", "--catalog", "{cat}",
               "--sims", "40", "--seed", "13", *K, "--out", "{out}/rep"],
}

GOLDEN = {'k-plain': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                     'k.csv': '59843562bf3691e972dfd00c9134712b43f8ad6f423982d15b6f85cbde1acf71',
                     'k.csv.manifest.json': '000451e09d9fba65f14aaa9b5f2a703a4a694a3dce1950df43d9719380057294',
                     'k.svg': 'dd550ba72f8f0a31177d66566742ffc0d8979eabafc969f93d3e9e922daf383b'},
         'k-weighted-isotropic': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                  'k.csv': '0ca127c73d215c1e288cdcf5991653ff6a2f6867e09eec2a17e9775d7619b81d',
                                  'k.csv.manifest.json': '321314d197ba58dbaa9f0c2c04b631796464238675a87014d515da98dc430324',
                                  'k.svg': 'be96db2266ee0d8c2eda7d927b5f04ab24012f821ba1702b444c11cbd39d3218'},
         'ltest': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                   'score.json': '19cad154a1de1270c2c030be4a8e9783da971dd78a97e4c4638a1fba81d0151d',
                   'score.json.manifest.json': '6425e790fbd9f037af64df4140d8516a32e2d41533216ac95f40b70f90e156d7'},
         'ntest-analytic': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                            'score.json': 'ca75c87c3c84559c7082fc9fe94fe315b387f7a93eba83018c5b6a4f212ce601',
                            'score.json.manifest.json': '78483877602508c4dd72f22484734aba395460d6f15839a18fb8c372f58cb6cd'},
         'ntest-sims': {'<stdout>': 'b6c3e2f23efbd8ccb0cd5d151ed67fb08c2111254d50299348ca4974bbe42509'},
         'report': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                    'rep/manifest.json': '5e7dce74c3af7fd0740f8d70730641e699e74c1782cc90d39d9ff65d1b4ae043',
                    'rep/residuals_pearson.csv': 'ebd42d714de6dd702cdb8895b581ee459f2e3e96632f47978881e8755faf8e41',
                    'rep/residuals_pearson.svg': '2f2de37ecae206094baaa5a6ca55da8286b2250525a05284b6c1e9a5163b6153',
                    'rep/residuals_raw.csv': 'ad2420f7163bfcd5f76871ba6605dafcd665be89e52e71d3c4fe8eacd1b4b696',
                    'rep/residuals_raw.svg': 'dc06e703ad365e4dd492381c8ad73c42b3c57f883636e4bdfce4f31800a612a3',
                    'rep/scores.json': '7aae6fe73e409e08344e7e4fb4918bbb515aed095149bcb12bae5bd7303262c6',
                    'rep/superthin.csv': '5ed60e7e8bf1c211340964c6d2eccaa84489486b4ba91463a7cfd1e320f0e80f',
                    'rep/superthin.svg': '896fa9af734b36bbea101c2e8b877e7abe283ae4226e08d33558d91e1e1d9a5a',
                    'rep/superthin_assess.csv': '8b75ffef4afcfea287f81ba3be25c5bf53cc0f35b6ad6474e8b059aa2e4a60d6',
                    'rep/superthin_assess.svg': '07020c312a97d1cf38749e5dbb87be951902c791ac6c06144afd45b071a53dad',
                    'rep/weighted_k.csv': '14afcd6c56404bd49f44ead699298cc3c991bc78b562d45e1747204924289630',
                    'rep/weighted_k.svg': 'aeeee366dc23e8416f20f741626f5a3754e43f86147af50293db603abe71505e'},
         'resid-deviance': {'<stdout>': 'fb37aa1ea584cf0f2456ef33cb27011da79a84e191bdfe8bafd0b31abdbdefae',
                            'r.csv': 'a43b57fec1e4a24ec1753d0bae053582ad853fdaf544d7933554e35d7b9eb758',
                            'r.csv.manifest.json': 'e886a936cd3e42b6e65a5266f14852efef66a012b027c2fe4ea817b7b1d570c8',
                            'r.svg': 'b56d9ae00f0ce969499ebb324e65129535a3097705a4acd10396558c890e8768'},
         'resid-pearson': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                           'r.csv': 'ebd42d714de6dd702cdb8895b581ee459f2e3e96632f47978881e8755faf8e41',
                           'r.csv.manifest.json': '18a39ba926ae06d77f3d38eb681feb9d0903a049b46d8b226b92c0cbafc016af',
                           'r.svg': '2f2de37ecae206094baaa5a6ca55da8286b2250525a05284b6c1e9a5163b6153'},
         'resid-raw': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                       'r.csv': 'ad2420f7163bfcd5f76871ba6605dafcd665be89e52e71d3c4fe8eacd1b4b696',
                       'r.csv.manifest.json': '30ea65ae3ff787bfb89424164f5d5ff9e2f00e6622a71afda087f157ef550fa2',
                       'r.svg': 'dc06e703ad365e4dd492381c8ad73c42b3c57f883636e4bdfce4f31800a612a3'},
         'simulate': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                      'sim.csv': '87000c2210085ae2f1f89ffc051d628702906c45d9a635de5ded506d53cdfd47',
                      'sim.csv.manifest.json': 'f73dbef2358c04bd034c7f8bc30ce7e6ebcd8e1df96141851cf37a096953220e'},
         'simulate-stdout': {'<stdout>': 'b9b18f8b18fd3382ef6d0cebafe8a3ae374c5578c6050588a7dad4cb63489114'},
         'transform-rescale-horizontal': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                          't.csv': '9925b64642c23c8496cc0c15dd90b230950fc32c3bc0df18619f4e2553b65da8',
                                          't.csv.manifest.json': 'e494306df666292960082e90746a71e8f2622662256f09977bc9cec94268f55d',
                                          't.svg': '29ecf8bb532141b135774428178d5a7f5409e4ae0bd2ae37e7736361d93b8bb8',
                                          't_assess.csv': '2da02a3a4c2479b8a2009ce382d60585ca303828466cf46b7119585fc5fb852e',
                                          't_assess.svg': '51e28c3b38d419b19961182418bbd1eb6394a8fd2e5b42381614a460a2b00e68',
                                          't_region.csv': '019510a01a857982d8d14ee9a5cf5fd70784716885c5de43009e4669a2de85a1'},
         'transform-rescale-stdout': {'<stdout>': 'c42fd82fa4bd023848a5d341057cab9f4ec75be28a04ce74e08f798034767a4f'},
         'transform-rescale-vertical': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                        't.csv': '788ab34c392e5197bb44706c267aeb1aa76dccbc76dd98223c6edd854149f8c8',
                                        't.csv.manifest.json': 'c2fdce4e81ac9259e2aa928d76143ef18ca55cb6c1928a025aef6946627be947',
                                        't.svg': '1daeb698ef209b495b7b87738b8ac73a2b44ef8dbc34a503b8122113fad78197',
                                        't_assess.csv': '6066df0c12704fdb760d6fc5c6ac0341b83c78af6eec83e8840b3fe9d37021fb',
                                        't_assess.svg': 'c3e4ca8192e3f6a95b9b9a250c96c942cb5b4bdeac7ff377b6ed72ce3cf38564',
                                        't_region.csv': '73a3c5a1c77f435337c2750660f8b9104ad562d48f938da6e39bcf955c807ba8'},
         'transform-superpose': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                 't.csv': 'ba6914e145041707f908aa6bc685efac70530edfbc976f018b632d022e61f516',
                                 't.csv.manifest.json': '2999a1351d254e4e89ac88e15b98186976e006d88e1f6f973cf807dadf53a3c9',
                                 't_assess.csv': 'e1bd34cb386e68cbb0aa57ac1fee066144c94ae4087f643627c0e8b38048e72a'},
         'transform-superthin': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                 't.csv': 'e3e0930471ff978cec4e8f4d17ee0ada1cdb30c5323913aabc841ec71bdd7d10',
                                 't.csv.manifest.json': 'f9f77d43038d9c487e710d69373654a470e903a9ff367428390c487e21ac6cb6',
                                 't.svg': '5fe157ed3df08ea61103f8b36f7c200c1715f66e77d0c6c551c94de222fea3ad',
                                 't_assess.csv': '03f56c33beba1296ed0efa736a7d86fecee3b9d1f48c0a6527111632b1608512',
                                 't_assess.svg': 'cda582f49ee57273bd09759cdb4038eb1fb730a42f7d0b306fc526f15d502fb6'},
         'transform-thin': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                            't.csv': '599dfed03640f2b6bf4f78ff6465af197ba4a76dd7dc5a0ddbd229aa94a9684b',
                            't.csv.manifest.json': 'e5fd4b6a9c2739eab5d98a4d2b8f8296f2b823fae0221864fab930b8e346770f',
                            't.svg': 'ef7b81eaf0c432f75a8650e6ef29672df0c847d16c3e26d94b0cffa13b8a6fa6',
                            't_assess.csv': 'e86d4652e033021ef43b7368922e8b20ef9ce15a3639fde4d82e7caa825f400a',
                            't_assess.svg': 'e2829118c53602d1ea324d186583988f93c90885b8bf4a6c0316ac973a6e2fb5'},
         'transform-thin-approx': {'<stdout>': 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
                                   't.csv': '83bf82be2b110318d02b4ed4a716c75e3e56790801e41aadf011463f90a1628d',
                                   't.csv.manifest.json': 'ab6360e2eaf00d4caeda77b9d87c95fd5898d3654df98be7d0e11819ad8acafd'}}


def _manifest_key(data: bytes) -> bytes:
    record = json.loads(data)
    record.pop("timestamp")
    record["inputs"] = {os.path.basename(p): h
                        for p, h in record["inputs"].items()}
    return json.dumps(record, sort_keys=True).encode()


def _digests(out_dir, stdout: str) -> dict:
    found = {"<stdout>": hashlib.sha256(stdout.encode()).hexdigest()}
    for root, _, files in os.walk(out_dir):
        for name in files:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith("manifest.json"):
                data = _manifest_key(data)
            found[os.path.relpath(path, out_dir)] = \
                hashlib.sha256(data).hexdigest()
    return found


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digests(name, inputs, tmp_path, capsys):
    argv = [a.format(out=tmp_path, **inputs) for a in CASES[name]]
    capsys.readouterr()
    assert main(argv) == 0
    assert _digests(tmp_path, capsys.readouterr().out) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_warm_cache_writes_the_same_bytes(name, inputs, tmp_path, capsys,
                                          monkeypatch):
    found = []
    for run in ("cold", "warm"):
        out = tmp_path / run
        out.mkdir()
        capsys.readouterr()
        assert main([a.format(out=out, **inputs) for a in CASES[name]]) == 0
        found.append(_digests(out, capsys.readouterr().out))
        # the warm run must take every forecast's rows from the cache
        monkeypatch.setattr(cli, "read_rows", None)
    assert found[0] == found[1] == GOLDEN[name]
