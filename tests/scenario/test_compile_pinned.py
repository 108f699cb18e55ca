"""Byte-level pins of scenario compilation and of every engine query.

The digests below were recorded on the per-event compiler (one scalar
``Generator.uniform`` call per draw, one ``ScenarioEvent`` per event, every
client"s timeline built eagerly). Any rewrite of ``ScenarioEngine.compile``
or of the structures behind its queries must reproduce them exactly; none
is ever regenerated to make a change pass. No golden history runs drift,
burst, bwheal or a trace, so for those families this file is the only
byte-level guard.

Each case digests two things:

- the compiled event table: ``float.hex`` of time and value, plus kind,
  client and episode, in the engine"s ``(time, insertion)`` order;
- every query"s answer over a grid of times for a sample of clients (those
  the events touch and some they do not), asked in a shuffled client order.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.scenario import ScenarioEngine, parse_scenario

TRACE = Path(__file__).resolve().parents[1] / "fixtures" / "traces" / "diurnal_tiny.csv"

SPECS = (
    "churn",
    "drift",
    "burst",
    "arrival",
    "bwdrift",
    "bwheal",
    "chaos",
    "churn:0.2+arrival:0.1+bwdrift:2",
    "burst:1+burst:1",
    "churn:0.3+churn:0.3",
    "drift:0.5+bwdrift:3+bwheal:4",
    "trace:{trace}+churn:0.2",
)
POPULATIONS = (1, 2, 7, 503)
HORIZONS = (100.0, 777.7)
SEEDS = (0, 5)


def _compile(spec: str, n: int, horizon: float, seed: int) -> ScenarioEngine:
    parsed = parse_scenario(spec.format(trace=TRACE))
    return ScenarioEngine.compile(parsed, n, horizon, np.random.default_rng(seed))


def _canon(x) -> str:
    """Exact text of an answer: floats as ``float.hex``, containers recursed."""
    if x is None:
        return "None"
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in x) + "]"
    raise TypeError(f"cannot canonicalise {type(x).__name__}")


def events_digest(eng: ScenarioEngine) -> str:
    h = hashlib.sha256()
    for e in eng.events:
        row = (float(e.time).hex(), e.kind, e.client_id, float(e.value).hex(), e.episode)
        h.update(" ".join(map(str, row)).encode() + b"\n")
    return h.hexdigest()[:16]


def queries_digest(eng: ScenarioEngine, n: int, horizon: float, seed: int) -> str:
    """Digest of every query at a grid of times for sampled clients."""
    rng = np.random.default_rng([seed, n])
    touched = sorted({e.client_id for e in eng.events})
    picked = set(rng.permutation(touched)[:24].tolist())
    picked |= set(rng.integers(0, n, size=min(n, 8)).tolist())
    ids = rng.permutation(sorted(picked))
    times = [0.0] + [f * horizon for f in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5)]
    times += [e.time for e in eng.events[:: max(1, len(eng.events) // 6)]]
    answers: list = []
    for cid in ids.tolist():
        for t in times:
            answers.append(
                [
                    eng.is_available(cid, t),
                    eng.available_throughout(cid, t, t + 0.05 * horizon),
                    eng.latency_multiplier(cid, t),
                    eng.bandwidth_scale(cid, t),
                    eng.arrival_time(cid),
                    eng.next_join_after([cid], t),
                ]
            )
    for t in times:
        answers.append(eng.available_mask(ids, t).tolist())
        answers.append(eng.next_join_after(ids, t))
        answers.append(eng.next_join_after(range(n), t))
    answers.append([list(pair) for pair in eng.late_arrivals()])
    answers.append(eng.founders().tolist())
    answers.append([eng.has_arrivals, eng.has_bandwidth_events, eng.is_static])
    return hashlib.sha256(_canon(answers).encode()).hexdigest()[:16]


def digests(spec: str, populations=POPULATIONS) -> dict[str, tuple[str, str]]:
    out = {}
    for n in populations:
        for horizon in HORIZONS:
            for seed in SEEDS:
                eng = _compile(spec, n, horizon, seed)
                key = f"n={n} horizon={horizon} seed={seed}"
                out[key] = (events_digest(eng), queries_digest(eng, n, horizon, seed))
    return out


#: spec -> {case: (events digest, queries digest)}, recorded on the
#: per-event compiler.
PINNED: dict[str, dict[str, tuple[str, str]]] = {
    "churn": {
        "n=1 horizon=100.0 seed=0": ("2afdc82649b103cf", "632b9b36aaaca3a3"),
        "n=1 horizon=100.0 seed=5": ("e3a2b231cf5a90e1", "cf8065449732dafc"),
        "n=1 horizon=777.7 seed=0": ("b1b01ec41dc81174", "78efed1ca499707e"),
        "n=1 horizon=777.7 seed=5": ("4a018a04d13e7a6c", "21464de61f43b92c"),
        "n=2 horizon=100.0 seed=0": ("cae8e7dd6b74811d", "3dc08363df55248c"),
        "n=2 horizon=100.0 seed=5": ("d8da2b54b5afa45f", "6699f416769c6a26"),
        "n=2 horizon=777.7 seed=0": ("25994830c30fecea", "a32bb76cdb6f9933"),
        "n=2 horizon=777.7 seed=5": ("efe5870807e8acfa", "2825768a8af472da"),
        "n=7 horizon=100.0 seed=0": ("3451af7712d71cac", "43eb945ff7943b34"),
        "n=7 horizon=100.0 seed=5": ("6907d7206f46493f", "e88092a11d9412e5"),
        "n=7 horizon=777.7 seed=0": ("5eb0387c7b424522", "c83e2faa07a76080"),
        "n=7 horizon=777.7 seed=5": ("d0114263f42f882a", "65ee8d81509e8d14"),
        "n=503 horizon=100.0 seed=0": ("1094458dfaa09d31", "9ee6598b45191af1"),
        "n=503 horizon=100.0 seed=5": ("b9798f30c1c7cc1b", "c017813567b64377"),
        "n=503 horizon=777.7 seed=0": ("8e91bb340295b87b", "8b42448153efe0ae"),
        "n=503 horizon=777.7 seed=5": ("e53ceb355244b382", "4421d717377a2510"),
    },
    "drift": {
        "n=1 horizon=100.0 seed=0": ("f95f7f7d6343979e", "c7b2a4acacd8f937"),
        "n=1 horizon=100.0 seed=5": ("570e4b1c37faed60", "cb4ba09c9137b9d9"),
        "n=1 horizon=777.7 seed=0": ("03bf5dd1cf509d0b", "c7b2a4acacd8f937"),
        "n=1 horizon=777.7 seed=5": ("e0fb705396f2d4bd", "cb4ba09c9137b9d9"),
        "n=2 horizon=100.0 seed=0": ("b39034837115498b", "f6912b6f3d9476a3"),
        "n=2 horizon=100.0 seed=5": ("293669f12d6ff2b9", "7b26d7ff57a02ad7"),
        "n=2 horizon=777.7 seed=0": ("962b72e95f9793b6", "f6912b6f3d9476a3"),
        "n=2 horizon=777.7 seed=5": ("fc557455c52e421f", "7b26d7ff57a02ad7"),
        "n=7 horizon=100.0 seed=0": ("602b1f16080e8ecd", "29b5eb13c1c69267"),
        "n=7 horizon=100.0 seed=5": ("08400a9ce4bfe9ea", "0667d31f203d008d"),
        "n=7 horizon=777.7 seed=0": ("943e5d6722d1f302", "29b5eb13c1c69267"),
        "n=7 horizon=777.7 seed=5": ("41a2c7e5199c6000", "0667d31f203d008d"),
        "n=503 horizon=100.0 seed=0": ("1dc1e5896c408961", "ef9869269f1dfffc"),
        "n=503 horizon=100.0 seed=5": ("182e0db845b608d0", "82ab9b42ddb645cc"),
        "n=503 horizon=777.7 seed=0": ("1340bc49eece77e9", "ef9869269f1dfffc"),
        "n=503 horizon=777.7 seed=5": ("0a98d92d29c12f47", "82ab9b42ddb645cc"),
    },
    "burst": {
        "n=1 horizon=100.0 seed=0": ("b87f91e3bf298b3f", "6a7a2baf9bbf7ca3"),
        "n=1 horizon=100.0 seed=5": ("055457d599897cce", "92d9c4a4c8947b4a"),
        "n=1 horizon=777.7 seed=0": ("0647a5e4b9ebe649", "6a7a2baf9bbf7ca3"),
        "n=1 horizon=777.7 seed=5": ("72024a487673501c", "92d9c4a4c8947b4a"),
        "n=2 horizon=100.0 seed=0": ("0437d66d33af3885", "083f09956f5bed54"),
        "n=2 horizon=100.0 seed=5": ("e8a080209cf6f496", "6b65ce3ceea6edef"),
        "n=2 horizon=777.7 seed=0": ("5fc3ae88e297a519", "083f09956f5bed54"),
        "n=2 horizon=777.7 seed=5": ("1485e8696524949d", "6b65ce3ceea6edef"),
        "n=7 horizon=100.0 seed=0": ("cc2c465f811c84aa", "38975aecd01c45c1"),
        "n=7 horizon=100.0 seed=5": ("12058b3a7e77f692", "83ea6e974b7b1e6e"),
        "n=7 horizon=777.7 seed=0": ("2e217fe21447f7f5", "38975aecd01c45c1"),
        "n=7 horizon=777.7 seed=5": ("c8e6cbe65a7903f0", "83ea6e974b7b1e6e"),
        "n=503 horizon=100.0 seed=0": ("06eec68090154d5e", "461920dac0ce0abb"),
        "n=503 horizon=100.0 seed=5": ("401f19f74ba5dd12", "ad4a9eca3243048a"),
        "n=503 horizon=777.7 seed=0": ("71a26012276ccf84", "461920dac0ce0abb"),
        "n=503 horizon=777.7 seed=5": ("ee3147e47b6abcc6", "ad4a9eca3243048a"),
    },
    "arrival": {
        "n=1 horizon=100.0 seed=0": ("e3b0c44298fc1c14", "9c8c072aabedffd8"),
        "n=1 horizon=100.0 seed=5": ("e3b0c44298fc1c14", "9c8c072aabedffd8"),
        "n=1 horizon=777.7 seed=0": ("e3b0c44298fc1c14", "9c8c072aabedffd8"),
        "n=1 horizon=777.7 seed=5": ("e3b0c44298fc1c14", "9c8c072aabedffd8"),
        "n=2 horizon=100.0 seed=0": ("04db7d5ee38b0826", "c08f1afe5bdae399"),
        "n=2 horizon=100.0 seed=5": ("62187371a4cb0c82", "9f4dddbe1a50b3eb"),
        "n=2 horizon=777.7 seed=0": ("19c49db45870f2dd", "14d89943d5d2e8e2"),
        "n=2 horizon=777.7 seed=5": ("be70aabead7097ec", "86711b4865b6606a"),
        "n=7 horizon=100.0 seed=0": ("a6f1b1b3822b6a73", "2a6d18b0f9893a6b"),
        "n=7 horizon=100.0 seed=5": ("38b5c467f2c4574a", "c759caeb6f85363c"),
        "n=7 horizon=777.7 seed=0": ("c931dc8c0faeab6d", "9feacd85a9442881"),
        "n=7 horizon=777.7 seed=5": ("99e85349899df7f1", "366d38578f780abe"),
        "n=503 horizon=100.0 seed=0": ("a466f3c8c7ed003c", "dc4e8c6582ba6577"),
        "n=503 horizon=100.0 seed=5": ("f57990e3fe0f644d", "350a67ad9f264d68"),
        "n=503 horizon=777.7 seed=0": ("37c7e60714ee1d99", "580741c4b4deab72"),
        "n=503 horizon=777.7 seed=5": ("450f77d153251536", "5b42179bc621508d"),
    },
    "bwdrift": {
        "n=1 horizon=100.0 seed=0": ("10eb596a3f4a08c0", "10d66fb4244a3079"),
        "n=1 horizon=100.0 seed=5": ("5aaa3bdc3852bd8f", "9c1e60af5877bcf7"),
        "n=1 horizon=777.7 seed=0": ("cd170812b012a247", "10d66fb4244a3079"),
        "n=1 horizon=777.7 seed=5": ("667f1b4b2906bd2d", "9c1e60af5877bcf7"),
        "n=2 horizon=100.0 seed=0": ("c1e1e0d6100a45a3", "cd9fcd44d9a70f0c"),
        "n=2 horizon=100.0 seed=5": ("4f1038580a81829a", "283677e1a5454d81"),
        "n=2 horizon=777.7 seed=0": ("f7154acdc257a1cf", "cd9fcd44d9a70f0c"),
        "n=2 horizon=777.7 seed=5": ("679211a3746a63c0", "283677e1a5454d81"),
        "n=7 horizon=100.0 seed=0": ("130f0eaf51022230", "ff73aaf2cd7a1249"),
        "n=7 horizon=100.0 seed=5": ("453177cd6fddc175", "0d5eac9432813cb5"),
        "n=7 horizon=777.7 seed=0": ("16c50101cd5c64d2", "ff73aaf2cd7a1249"),
        "n=7 horizon=777.7 seed=5": ("8014b0a25abe9d1c", "0d5eac9432813cb5"),
        "n=503 horizon=100.0 seed=0": ("ac2c00955ede4ae7", "81bc4cfd1bc61d74"),
        "n=503 horizon=100.0 seed=5": ("560f04b68729f1f2", "d3732a860079944e"),
        "n=503 horizon=777.7 seed=0": ("88a56dabb7d6a6a3", "81bc4cfd1bc61d74"),
        "n=503 horizon=777.7 seed=5": ("f292f0915c3e4126", "d3732a860079944e"),
    },
    "bwheal": {
        "n=1 horizon=100.0 seed=0": ("474ff6b201c5ca3f", "7b89c46da09a9711"),
        "n=1 horizon=100.0 seed=5": ("5da86a815cf43c98", "7b89c46da09a9711"),
        "n=1 horizon=777.7 seed=0": ("13389bc8e9effeaf", "7b89c46da09a9711"),
        "n=1 horizon=777.7 seed=5": ("604786c9cef5aaf5", "7b89c46da09a9711"),
        "n=2 horizon=100.0 seed=0": ("c5460186020630be", "10deb304d727f251"),
        "n=2 horizon=100.0 seed=5": ("a00acb407d36261d", "7c1458cdd5a37362"),
        "n=2 horizon=777.7 seed=0": ("48bf820cdd59efed", "10deb304d727f251"),
        "n=2 horizon=777.7 seed=5": ("dd8433c6cee15faa", "7c1458cdd5a37362"),
        "n=7 horizon=100.0 seed=0": ("b4d1a74822d25f2d", "0b0c37a1071547ec"),
        "n=7 horizon=100.0 seed=5": ("9ea82d73f2ab1b20", "e90d3a685fc14d11"),
        "n=7 horizon=777.7 seed=0": ("ab924c36e9953042", "0b0c37a1071547ec"),
        "n=7 horizon=777.7 seed=5": ("b169173b36843c46", "e90d3a685fc14d11"),
        "n=503 horizon=100.0 seed=0": ("700b8832bf79dc59", "04268fb4a692746d"),
        "n=503 horizon=100.0 seed=5": ("a2205dc70030c7a1", "948057ace7947ce6"),
        "n=503 horizon=777.7 seed=0": ("9f713b37be8bf6d8", "04268fb4a692746d"),
        "n=503 horizon=777.7 seed=5": ("27325cd750163c99", "948057ace7947ce6"),
    },
    "chaos": {
        "n=1 horizon=100.0 seed=0": ("ad68e91389c77b56", "a1fe72c7a0f31a9e"),
        "n=1 horizon=100.0 seed=5": ("c7b6ce38f8401e68", "e3daf5ca5e03b1dd"),
        "n=1 horizon=777.7 seed=0": ("2445e3054d666838", "46a445741253d82d"),
        "n=1 horizon=777.7 seed=5": ("787f329ccb6db056", "f5ece98e8c157295"),
        "n=2 horizon=100.0 seed=0": ("5cda5134e4a9c66f", "8d36b7c7e5397e79"),
        "n=2 horizon=100.0 seed=5": ("b65bdf76e7d59ac7", "6551a15110d92eb4"),
        "n=2 horizon=777.7 seed=0": ("16e7078753e66788", "654d91516399b623"),
        "n=2 horizon=777.7 seed=5": ("4d4dd956bce774e0", "78ef6e9c3bc5c98f"),
        "n=7 horizon=100.0 seed=0": ("674d7e1c3a7b69db", "253fd541569bc61e"),
        "n=7 horizon=100.0 seed=5": ("a4a206863c4b4dea", "f9c7768a0b3e2687"),
        "n=7 horizon=777.7 seed=0": ("1f6b254a97626380", "58f7a52523b3b8ed"),
        "n=7 horizon=777.7 seed=5": ("20c00f5c34c312c6", "3b0985968854e577"),
        "n=503 horizon=100.0 seed=0": ("537a00037c1e71c9", "976f68674e1b958a"),
        "n=503 horizon=100.0 seed=5": ("57991f4d895d2341", "7883a8c7d02fce21"),
        "n=503 horizon=777.7 seed=0": ("7c928d521c187669", "aaebdfa9f61c1bf7"),
        "n=503 horizon=777.7 seed=5": ("724924d6d26cddfb", "97bfa3619a11e4d6"),
    },
    "churn:0.2+arrival:0.1+bwdrift:2": {
        "n=1 horizon=100.0 seed=0": ("64302a5732aeae49", "670175bd36c9d6cf"),
        "n=1 horizon=100.0 seed=5": ("4d0fc39120ef4b21", "6a4b96f65f9f3b8d"),
        "n=1 horizon=777.7 seed=0": ("306ed75f2309a507", "43a1a4f20f6b10e6"),
        "n=1 horizon=777.7 seed=5": ("439ab7007c325a7e", "49eea0d5bf6a6244"),
        "n=2 horizon=100.0 seed=0": ("b0d76f330d7c7c31", "4f7ebfe18afaf5cf"),
        "n=2 horizon=100.0 seed=5": ("f0cc0443627c3754", "0fde3baa70b83941"),
        "n=2 horizon=777.7 seed=0": ("fad740117a9e42aa", "8f589d75e17c55e9"),
        "n=2 horizon=777.7 seed=5": ("72794f0d19444ac6", "d976a4a64a5076b5"),
        "n=7 horizon=100.0 seed=0": ("5bb0c792bfe5a427", "36a21b13da10c242"),
        "n=7 horizon=100.0 seed=5": ("0bfb0b57a209e5ed", "4489d4551cc0e7e8"),
        "n=7 horizon=777.7 seed=0": ("b0a8a4651081fe38", "c58112820e8ac597"),
        "n=7 horizon=777.7 seed=5": ("b6deb9aeb80ff5db", "7456a1e2abc009f6"),
        "n=503 horizon=100.0 seed=0": ("df3a396aeec58d8b", "a9ec902540a25f5e"),
        "n=503 horizon=100.0 seed=5": ("dcdb99610bce7c2b", "bd36e7b55cfe487d"),
        "n=503 horizon=777.7 seed=0": ("44bb6c0b619337f7", "cdf3d9c16ec5682a"),
        "n=503 horizon=777.7 seed=5": ("f44544644714f02d", "d5975df3dc046085"),
    },
    "burst:1+burst:1": {
        "n=1 horizon=100.0 seed=0": ("dc0cefbb4cc4803e", "b9b8377c81b8693d"),
        "n=1 horizon=100.0 seed=5": ("06be82f46587d704", "b9b8377c81b8693d"),
        "n=1 horizon=777.7 seed=0": ("03780acc925a4164", "b9b8377c81b8693d"),
        "n=1 horizon=777.7 seed=5": ("cdc8ea0d2ead9476", "b9b8377c81b8693d"),
        "n=2 horizon=100.0 seed=0": ("e0be2d2b3f7960ab", "41cb3903e84c1ed6"),
        "n=2 horizon=100.0 seed=5": ("06be82f46587d704", "aa3e3332dab81208"),
        "n=2 horizon=777.7 seed=0": ("9694fcf57bb9ccfa", "41cb3903e84c1ed6"),
        "n=2 horizon=777.7 seed=5": ("cdc8ea0d2ead9476", "aa3e3332dab81208"),
        "n=7 horizon=100.0 seed=0": ("c15ee248deb0f0ca", "f7cf4d77021105d7"),
        "n=7 horizon=100.0 seed=5": ("18d5a7514448938c", "1da221e60c3ceef1"),
        "n=7 horizon=777.7 seed=0": ("19c7ae6b63c605a6", "f7cf4d77021105d7"),
        "n=7 horizon=777.7 seed=5": ("7c92d1b44bee97a1", "1da221e60c3ceef1"),
        "n=503 horizon=100.0 seed=0": ("48daa57af81e75fd", "8918acd4038750e2"),
        "n=503 horizon=100.0 seed=5": ("38c0183625c40ac2", "c81cdaeabeb5d48c"),
        "n=503 horizon=777.7 seed=0": ("c29234442d5bf2e4", "8918acd4038750e2"),
        "n=503 horizon=777.7 seed=5": ("2a77163ce7995dd7", "c81cdaeabeb5d48c"),
    },
    "churn:0.3+churn:0.3": {
        "n=1 horizon=100.0 seed=0": ("8fcfba0780d1bed7", "9cd2e81b08cb3a9d"),
        "n=1 horizon=100.0 seed=5": ("16b89c961d2246c1", "32ea3fa385611877"),
        "n=1 horizon=777.7 seed=0": ("da6a8e69f2c6db6c", "a11fc082c4d2c0c3"),
        "n=1 horizon=777.7 seed=5": ("15a43dabea0754dc", "16be738ecf4628ef"),
        "n=2 horizon=100.0 seed=0": ("68a5cc0f12bac93b", "1b056541db2802cd"),
        "n=2 horizon=100.0 seed=5": ("f04eea94dd8767c7", "f490c1c4a52b497e"),
        "n=2 horizon=777.7 seed=0": ("74fb3f39088b8bec", "130259cbd00f543b"),
        "n=2 horizon=777.7 seed=5": ("2312df9e452c75e3", "bdf90eda0afb3226"),
        "n=7 horizon=100.0 seed=0": ("3b61150c6df572dc", "0771201b3cc4cac5"),
        "n=7 horizon=100.0 seed=5": ("4dd106489f658d45", "e31fa65c88f735ea"),
        "n=7 horizon=777.7 seed=0": ("f72e6c2184ee860f", "9c9f091f9839a81e"),
        "n=7 horizon=777.7 seed=5": ("594d64926718c6be", "474f6fbfeefbc31a"),
        "n=503 horizon=100.0 seed=0": ("1815a78c5063a34f", "f62e10e20063c9df"),
        "n=503 horizon=100.0 seed=5": ("e82bc2bed7235e81", "00f7d096dd0a7df6"),
        "n=503 horizon=777.7 seed=0": ("d70a8de797742689", "d2927d670c0a4c83"),
        "n=503 horizon=777.7 seed=5": ("d41bd8e92227b0fa", "ca73f6d0902b0628"),
    },
    "drift:0.5+bwdrift:3+bwheal:4": {
        "n=1 horizon=100.0 seed=0": ("577bba9ed8937150", "d1d8f3398312d891"),
        "n=1 horizon=100.0 seed=5": ("ffaf566ca6d5b0a5", "7c884b6c4eed6e5e"),
        "n=1 horizon=777.7 seed=0": ("6ca23723ed07c436", "d1d8f3398312d891"),
        "n=1 horizon=777.7 seed=5": ("ea7fc71ae50c366e", "7c884b6c4eed6e5e"),
        "n=2 horizon=100.0 seed=0": ("f67c793fa8dc8619", "5cbb312952e4a2b1"),
        "n=2 horizon=100.0 seed=5": ("217f0406ea317646", "b7d2fa44faa8542b"),
        "n=2 horizon=777.7 seed=0": ("6c486f413ba1a27b", "5cbb312952e4a2b1"),
        "n=2 horizon=777.7 seed=5": ("126121c9cfaf9449", "b7d2fa44faa8542b"),
        "n=7 horizon=100.0 seed=0": ("a03ba4aae6b190e2", "c6ceca7c383e8e2a"),
        "n=7 horizon=100.0 seed=5": ("9eda106591d344c5", "6916227c0eb5efe9"),
        "n=7 horizon=777.7 seed=0": ("912fabd8b09c5e8c", "c6ceca7c383e8e2a"),
        "n=7 horizon=777.7 seed=5": ("d557f990c6020b89", "6916227c0eb5efe9"),
        "n=503 horizon=100.0 seed=0": ("e883b4eb603add2d", "0c291b88a1c649e6"),
        "n=503 horizon=100.0 seed=5": ("00c45ae66474a53c", "0f3ad58e822277a4"),
        "n=503 horizon=777.7 seed=0": ("d9a87342b4ded7e3", "0c291b88a1c649e6"),
        "n=503 horizon=777.7 seed=5": ("34d9a0170438546c", "0f3ad58e822277a4"),
    },
    "trace:{trace}+churn:0.2": {
        "n=1 horizon=100.0 seed=0": ("df4e3ee8b99ed20b", "eb1c8c9c5ec23291"),
        "n=1 horizon=100.0 seed=5": ("748796186ae12a1c", "f2436ddebc4e5ab5"),
        "n=1 horizon=777.7 seed=0": ("27bac2c4d71138c5", "6aa32c3554383eba"),
        "n=1 horizon=777.7 seed=5": ("f0d59b13fb494e45", "98f5aeeeb3ea8bee"),
        "n=2 horizon=100.0 seed=0": ("904f7f309a3b1fb3", "598dacadce0336b3"),
        "n=2 horizon=100.0 seed=5": ("6e5676ca6f75223f", "1b521813bb40a319"),
        "n=2 horizon=777.7 seed=0": ("6996a9be42238b00", "5bd1ebfc31f392d1"),
        "n=2 horizon=777.7 seed=5": ("f9c04b5453416ba9", "f97330811376f68f"),
        "n=7 horizon=100.0 seed=0": ("2d6ada37b326e331", "7c92a98665bcac53"),
        "n=7 horizon=100.0 seed=5": ("1e54bbc2710c55be", "24c2827c4fbfd394"),
        "n=7 horizon=777.7 seed=0": ("cbe0f2968a277afa", "19638fda97a1b9c8"),
        "n=7 horizon=777.7 seed=5": ("3976d112316eeb28", "3042b51537c94256"),
        "n=503 horizon=100.0 seed=0": ("f7b966257b2cddbf", "8681365318d849bf"),
        "n=503 horizon=100.0 seed=5": ("b9eb0ebaddc48638", "c6e637528a268fbd"),
        "n=503 horizon=777.7 seed=0": ("c646999a808041a2", "0b6cb34f83d27090"),
        "n=503 horizon=777.7 seed=5": ("d869b96654cf91c7", "88a40833e3fcbedc"),
    },
}

#: One population-scale composition (the ledger"s world_30k scenario).
PINNED_30K: tuple[str, str] = ("3cc2578d1b3793f3", "363012083fb0ebf7")


#: Three specs over 5,000 clients, recorded on the constructor that sorted
#: every event into global time order before sorting by client.
PINNED_5K: dict[str, dict[str, tuple[str, str]]] = {
    "churn": {
        "n=5000 horizon=100.0 seed=0": ("15c54bf7b623cc01", "cc9dbda842068f46"),
        "n=5000 horizon=100.0 seed=5": ("1bd9c2966a0af98b", "702a7fda7750eb96"),
        "n=5000 horizon=777.7 seed=0": ("9b8509c2844e26ca", "1ed98a8b92ddf6fc"),
        "n=5000 horizon=777.7 seed=5": ("4260ba739c422df5", "ec9c52759c1a2669"),
    },
    "chaos": {
        "n=5000 horizon=100.0 seed=0": ("fa0186598c4afd03", "2d88b5d9f838a405"),
        "n=5000 horizon=100.0 seed=5": ("1a4090d66ea5b185", "6770047d1d1243b7"),
        "n=5000 horizon=777.7 seed=0": ("fb62b448b8062073", "7d68602b5aee85d5"),
        "n=5000 horizon=777.7 seed=5": ("ff878f3e488c1228", "abf5968971ebd0a6"),
    },
    "churn:0.2+arrival:0.1+bwdrift:2": {
        "n=5000 horizon=100.0 seed=0": ("33fc23366a603d27", "a51f8781da2dc3eb"),
        "n=5000 horizon=100.0 seed=5": ("7ee0674259af5dff", "ee5f4e7ad7a54255"),
        "n=5000 horizon=777.7 seed=0": ("54b1b592d3168522", "0de64088b19f0096"),
        "n=5000 horizon=777.7 seed=5": ("0eab9c853e0300f4", "afa887fc033ce541"),
    },
}


@pytest.mark.parametrize("spec", SPECS)
def test_compiled_events_and_queries_are_pinned(spec):
    got = digests(spec)
    want = PINNED[spec]
    wrong = {case: (got[case], pair) for case, pair in want.items() if got[case] != pair}
    assert not wrong, f"{spec}: (got, pinned) differ for {wrong}"
    assert set(got) == set(want)


def test_population_scale_composition_is_pinned():
    spec, n, horizon, seed = "churn:0.2+arrival:0.1+bwdrift:2", 30000, 1000.0, 0
    eng = _compile(spec, n, horizon, seed)
    assert len(eng.events) == 60397
    got = (events_digest(eng), queries_digest(eng, n, horizon, seed))
    assert got == PINNED_30K


@pytest.mark.parametrize("spec", sorted(PINNED_5K))
def test_five_thousand_clients_are_pinned(spec):
    got = digests(spec, populations=(5000,))
    assert got == PINNED_5K[spec]
