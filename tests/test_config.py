"""Scenario-file validation tests.

Every test feeds a plain mapping (or a YAML file) into the loader and
checks either the resulting ScenarioConfig or the dotted-path error
message that pinpoints the offending key.
"""

import time
from pathlib import Path

import pytest

from itstore.config import (
    ATTACK_KINDS,
    DEFAULT_PASSWORD,
    DEFAULT_WARMUP_MS,
    Expectation,
    derive_payload,
    load_scenario,
    parse_scenario,
)
from itstore.errors import ConfigurationError
from itstore.field import is_probable_prime
from itstore.harness import build_session
from itstore.keynet import DEFAULT_TOPOLOGY, KeyNetwork, LinkSpec, NodeSpec
from itstore.mac import MacScheme
from itstore.protocol import TpvSession

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# five holders on a star around Ohtemachi-1; every row gives only its
# required keys
FIVE_HOLDERS = {
    "layout": {"holders": 5},
    "topology": {
        "nodes": [{"name": "Ohtemachi-1"}]
        + [{"name": "Koganei-%d" % j} for j in range(1, 6)],
        "links": [{"name": "L%d" % j, "a": "Koganei-%d" % j,
                   "b": "Ohtemachi-1", "rate_bps": 300_000}
                  for j in range(1, 6)],
    },
}


# ----------------------------------------------------------------- defaults


def test_empty_mapping_yields_full_defaults():
    cfg = parse_scenario({})
    assert cfg.name == "scenario"
    assert cfg.seed == "itstore"
    assert cfg.warmup_ms == DEFAULT_WARMUP_MS
    assert (cfg.params.t_sh, cfg.params.n_sh) == (3, 4)
    assert cfg.params.field.q == (1 << 127) - 1
    assert cfg.scheme is MacScheme.POLYEVAL
    assert cfg.k == 256
    assert cfg.cs_tag_bits == 512
    assert cfg.renewal_group is None and cfg.renewal_rounds == 0
    assert cfg.placement.owner == "Ohtemachi-1"
    assert cfg.placement.end_user == "Ohtemachi-1"
    assert cfg.placement.calculator == "Koganei-1"
    assert cfg.placement.verifier == "Koganei-2"
    assert cfg.placement.holders == tuple(
        "Koganei-%d" % j for j in range(1, 5))
    assert cfg.clock_skews == {}
    assert cfg.topology == DEFAULT_TOPOLOGY
    assert len(cfg.payload) == 1024
    assert cfg.password == DEFAULT_PASSWORD.encode()
    assert cfg.attack.kind == "none"
    assert cfg.bench.sizes_kb == (1, 10, 100)
    assert cfg.bench.repetitions == 5
    assert cfg.bench.compare_general_prime is True
    assert cfg.outputs.transcript is None
    assert cfg.expect == ()


def test_name_default_comes_from_caller():
    cfg = parse_scenario({}, name_default="my-case")
    assert cfg.name == "my-case"
    assert parse_scenario({"name": "explicit"}).name == "explicit"


def test_default_payload_is_seed_derived_and_deterministic():
    a = parse_scenario({"seed": "alpha"})
    b = parse_scenario({"seed": "alpha"})
    c = parse_scenario({"seed": "beta"})
    assert a.payload == b.payload == derive_payload("alpha", 1024)
    assert a.payload != c.payload


# -------------------------------------------------------------------- field


@pytest.mark.parametrize("alias,q", [
    ("mersenne31", (1 << 31) - 1),
    ("mersenne61", (1 << 61) - 1),
    ("mersenne127", (1 << 127) - 1),
])
def test_field_aliases(alias, q):
    cfg = parse_scenario({"layout": {"field": alias}})
    assert cfg.params.field.q == q


def test_field_decimal_prime_accepted():
    cfg = parse_scenario({"layout": {"field": "2147483647"}})
    assert cfg.params.field.q == (1 << 31) - 1
    cfg = parse_scenario({"layout": {"field": 8191}})
    assert cfg.params.field.q == 8191


def test_field_composite_rejected():
    with pytest.raises(ConfigurationError, match="layout.field"):
        parse_scenario({"layout": {"field": 8192}})


def test_field_unknown_alias_rejected():
    with pytest.raises(ConfigurationError, match="layout.field"):
        parse_scenario({"layout": {"field": "mersenne999"}})


# ------------------------------------------------------------------- layout


def test_layout_threshold_and_holders():
    cfg = parse_scenario({
        "layout": {"threshold": 3, "holders": 5},
        "placement": {"holders": [
            "Koganei-1", "Koganei-2", "Koganei-3", "Koganei-4",
            "Ohtemachi-1"]},
    })
    assert (cfg.params.t_sh, cfg.params.n_sh) == (3, 5)
    assert len(cfg.placement.holders) == 5


def test_layout_without_default_holder_nodes_needs_placement():
    with pytest.raises(ConfigurationError,
                       match="placement.holders.*explicitly"):
        parse_scenario({"layout": {"threshold": 3, "holders": 5}})


def test_layout_threshold_above_cap_rejected():
    with pytest.raises(ConfigurationError, match="layout"):
        parse_scenario({"layout": {"threshold": 4, "holders": 6}})


def test_layout_threshold_above_holder_count_rejected():
    with pytest.raises(ConfigurationError, match="layout"):
        parse_scenario({"layout": {"threshold": 3, "holders": 2}})


def test_layout_holders_above_a_byte_rejected():
    # holder indices travel in one byte; 255 holders still parse
    star = {
        "nodes": [{"name": "hub"}]
        + [{"name": "h%d" % j} for j in range(1, 257)],
        "links": [{"name": "l%d" % j, "a": "hub", "b": "h%d" % j,
                   "rate_bps": 1} for j in range(1, 257)],
    }
    holders = ["h%d" % j for j in range(1, 257)]
    cfg = parse_scenario({"layout": {"holders": 255}, "topology": star,
                          "placement": {"owner": "hub", "end-user": "hub",
                                        "calculator": "hub", "verifier": "hub",
                                        "holders": holders[:255]}})
    assert cfg.params.n_sh == 255
    with pytest.raises(ConfigurationError) as info:
        parse_scenario({"layout": {"holders": 256}, "topology": star,
                        "placement": {"holders": holders}})
    assert str(info.value) == (
        "layout: holder indices travel in one byte, so n_sh <= 255, got 256")


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigurationError, match="scenario.*unknown key"):
        parse_scenario({"paylod": {"size_kb": 1}})


def test_unknown_nested_key_rejected():
    with pytest.raises(ConfigurationError, match="layout.*unknown key"):
        parse_scenario({"layout": {"treshold": 3}})


# ---------------------------------------------------------------------- mac


def test_mac_section():
    cfg = parse_scenario({
        "mac": {"scheme": "polyeval", "k": 64, "cs_tag_bits": 256}})
    assert cfg.scheme is MacScheme.POLYEVAL
    assert cfg.k == 64
    assert cfg.cs_tag_bits == 256


def test_mac_polyeval_needs_k_of_16():
    with pytest.raises(ConfigurationError, match=r"^mac\.k: .*k >= 16"):
        parse_scenario({"mac": {"k": 8}})
    assert parse_scenario({"mac": {"k": 16}}).k == 16
    # tags and keys are stored in whole bytes
    with pytest.raises(ConfigurationError,
                       match=r"^mac\.k: .*multiple of 8, got 20"):
        parse_scenario({"mac": {"scheme": "polyeval", "k": 20}})


def test_mac_k_has_an_upper_bound():
    # mac.k keys a modulus search that takes minutes past k = 2048
    started = time.process_time()
    with pytest.raises(ConfigurationError) as info:
        parse_scenario({"mac": {"k": 4096}})
    assert str(info.value) == (
        "mac.k: PolyEval needs k <= 512 for a prompt modulus search, "
        "got 4096")
    assert time.process_time() - started < 1.0
    assert parse_scenario({"mac": {"k": 512, "cs_tag_bits": 256}}).k == 512


def test_mac_bad_scheme_rejected():
    # toeplitz is the retired registration MAC
    for scheme in ("md5", "toeplitz"):
        with pytest.raises(ConfigurationError,
                           match=r"^mac\.scheme: expected one of: polyeval$"):
            parse_scenario({"mac": {"scheme": scheme}})


def test_mac_tag_bits_must_be_byte_aligned():
    with pytest.raises(ConfigurationError, match="mac.cs_tag_bits"):
        parse_scenario({"mac": {"cs_tag_bits": 100}})


def test_mac_cs_tag_bits_must_differ_from_k():
    # the verifier tells a digest row from a tag row by width alone
    with pytest.raises(ConfigurationError,
                       match=r"^mac\.cs_tag_bits: must differ from k = 256"):
        parse_scenario({"mac": {"cs_tag_bits": 256}})
    with pytest.raises(ConfigurationError, match=r"^mac\.cs_tag_bits: "):
        parse_scenario({"mac": {"k": 64, "cs_tag_bits": 64}})


@pytest.mark.parametrize("mac", [{"k": 512}, {"k": 512, "cs_tag_bits": None}],
                         ids=["absent", "null"])
def test_k_512_alone_asks_for_cs_tag_bits_to_be_set(mac):
    # cs_tag_bits was refused as if the scenario had set it to k
    with pytest.raises(ConfigurationError) as info:
        parse_scenario({"mac": mac})
    assert str(info.value) == (
        "mac.cs_tag_bits: unset, and its default of 512 equals k = 512; set"
        " it to another width")


# ------------------------------------------------------------------ renewal


def test_renewal_defaults_to_matching_group():
    cfg = parse_scenario({"renewal": {"rounds": 2}})
    assert cfg.renewal_rounds == 2
    assert cfg.renewal_group is not None
    assert cfg.renewal_group.q == cfg.params.field.q


def test_renewal_group_must_match_field():
    with pytest.raises(ConfigurationError, match="renewal.group"):
        parse_scenario({
            "layout": {"field": "mersenne31"},
            "renewal": {"group": "mersenne127", "rounds": 1},
        })


def test_renewal_rounds_without_group_on_odd_field_rejected():
    with pytest.raises(ConfigurationError, match="renewal.group"):
        parse_scenario({
            "layout": {"field": "mersenne31"},
            "renewal": {"rounds": 1},
        })


def test_renewal_zero_rounds_needs_no_group():
    cfg = parse_scenario({
        "layout": {"field": "mersenne31"},
        "renewal": {"rounds": 0},
    })
    assert cfg.renewal_group is None


# ----------------------------------------------------------------- topology


def test_topology_scaling_applies_to_nodes_and_links():
    cfg = parse_scenario({
        "topology": {"rate_scale": 2.0, "capacity_scale": 0.5}})
    for scaled, base in zip(cfg.topology.nodes, DEFAULT_TOPOLOGY.nodes):
        assert scaled.entropy_rate_bps == base.entropy_rate_bps * 2
        assert scaled.entropy_capacity_bits == base.entropy_capacity_bits // 2
    for scaled, base in zip(cfg.topology.links, DEFAULT_TOPOLOGY.links):
        assert scaled.rate_bps == base.rate_bps * 2
        assert scaled.capacity_bits == base.capacity_bits // 2


def test_topology_unscaled_is_the_default_object():
    assert parse_scenario({}).topology is DEFAULT_TOPOLOGY


def test_custom_topology_round_trip():
    mapping = {
        "topology": {
            "nodes": [
                {"name": "A"},
                {"name": "B", "entropy_rate_bps": 123},
            ],
            "links": [
                {"name": "A-B", "a": "A", "b": "B", "rate_bps": 1000,
                 "length_km": 5.0, "capacity_bits": 9999},
            ],
        },
        "placement": {
            "owner": "A", "end-user": "A", "calculator": "B",
            "verifier": "B", "holders": ["A", "B", "A", "B"],
        },
    }
    cfg = parse_scenario(mapping)
    assert {n.name for n in cfg.topology.nodes} == {"A", "B"}
    assert cfg.topology.links[0].capacity_bits == 9999
    assert cfg.topology.nodes[1].entropy_rate_bps == 123
    assert cfg.placement.calculator == "B"


def test_custom_topology_needs_both_nodes_and_links():
    with pytest.raises(ConfigurationError, match="topology"):
        parse_scenario({"topology": {"nodes": [{"name": "A"}]}})


def test_custom_link_to_unknown_node_rejected():
    with pytest.raises(ConfigurationError, match="topology"):
        parse_scenario({"topology": {
            "nodes": [{"name": "A"}, {"name": "B"}],
            "links": [{"name": "x", "a": "A", "b": "C", "rate_bps": 1}],
        }})


def test_custom_link_refused_by_its_spec_names_its_row():
    with pytest.raises(ConfigurationError) as info:
        parse_scenario({"topology": {
            "nodes": [{"name": "A"}, {"name": "B"}],
            "links": [{"name": "l", "a": "A", "b": "A", "rate_bps": 1}],
        }})
    assert str(info.value) == (
        "topology.links[0]: link l joins a node to itself")


def test_custom_node_name_with_a_pair_separator_rejected():
    with pytest.raises(ConfigurationError) as info:
        parse_scenario({"topology": {
            "nodes": [{"name": "A|B"}, {"name": "C"}],
            "links": [{"name": "l", "a": "A|B", "b": "C", "rate_bps": 1}],
        }})
    assert str(info.value) == "topology: node name 'A|B' contains '|'"


# ---------------------------------------------------------------- placement


def test_placement_unknown_node_rejected():
    with pytest.raises(ConfigurationError, match="placement.owner"):
        parse_scenario({"placement": {"owner": "Atlantis-1"}})


def test_placement_holder_count_must_match_layout():
    with pytest.raises(ConfigurationError, match="placement.holders"):
        parse_scenario({"placement": {"holders": ["Koganei-1", "Koganei-2"]}})


def test_placement_unknown_holder_node_rejected():
    with pytest.raises(ConfigurationError, match=r"placement.holders\[2\]"):
        parse_scenario({"placement": {"holders": [
            "Koganei-1", "Koganei-2", "Nowhere", "Koganei-4"]}})


def test_a_session_without_placement_places_every_holder_of_the_layout(
        tmp_path):
    cfg = parse_scenario(FIVE_HOLDERS)
    assert cfg.placement.holders == tuple(
        "Koganei-%d" % j for j in range(1, 6))
    session = TpvSession(tmp_path, params=cfg.params,
                         net=KeyNetwork(cfg.topology))
    assert session.placement == cfg.placement
    session.advance(DEFAULT_WARMUP_MS)
    data = b"five holders " + bytes(range(100))
    sid, _t1 = session.register(data, cfg.password)
    blocks = session.holder_stores[1].get_secret(sid).block_count
    session.precompute(sid, rounds=2 * blocks)
    result = session.reconstruct_and_release(sid, cfg.password,
                                             subset=(5, 2, 4))
    assert result.data == data
    assert session.renew(sid).accepted
    result = session.reconstruct_and_release(sid, cfg.password,
                                             subset=(5, 2, 4))
    assert result.data == data
    assert session.net.conservation_holds()


def test_scenario_and_session_defaults_agree(tmp_path):
    def deployment(session):
        return (session.placement, session.k, session.cs_tag_bits,
                session.renewal_group)

    for n_sh, mapping in ((4, {}), (5, FIVE_HOLDERS)):
        cfg = parse_scenario(mapping)
        assert cfg.params.n_sh == n_sh
        built = build_session(cfg, tmp_path / ("built-%d" % n_sh))
        plain = TpvSession(tmp_path / ("plain-%d" % n_sh), params=cfg.params,
                           net=KeyNetwork(cfg.topology))
        assert deployment(built) == deployment(plain)
    assert cfg.topology.nodes == tuple(
        NodeSpec(row["name"]) for row in FIVE_HOLDERS["topology"]["nodes"])
    assert cfg.topology.links == tuple(
        LinkSpec(row["name"], row["a"], row["b"], row["rate_bps"])
        for row in FIVE_HOLDERS["topology"]["links"])


# -------------------------------------------------------------- clock skews


def test_clock_skews_accepted_for_known_roles():
    cfg = parse_scenario({"clock_skews": {
        "owner": -25, "verifier": 40, "holder-3": 7}})
    assert cfg.clock_skews == {"owner": -25, "verifier": 40, "holder-3": 7}


def test_clock_skews_unknown_role_rejected():
    with pytest.raises(ConfigurationError, match="clock_skews.banker"):
        parse_scenario({"clock_skews": {"banker": 10}})


def test_clock_skews_holder_index_bounded_by_layout():
    with pytest.raises(ConfigurationError, match="clock_skews.holder-5"):
        parse_scenario({"clock_skews": {"holder-5": 10}})


def test_session_refuses_the_skews_a_scenario_refuses(tmp_path):
    # one list of roles: a misspelt role no longer leaves its clock unskewed
    for key in ("verifer", "holder-5", "banker"):
        with pytest.raises(ConfigurationError, match="clock_skews.*" + key):
            TpvSession(tmp_path / key, clock_skews={key: -10_000})
        with pytest.raises(ConfigurationError, match="clock_skews." + key):
            parse_scenario({"clock_skews": {key: -10_000}})
    session = TpvSession(tmp_path / "ok", clock_skews={"verifier": -10_000,
                                                       "holder-4": 7})
    assert session.clock("verifier") == session.net.now_ms - 10_000
    assert session.clock("holder-4") == session.net.now_ms + 7


# ------------------------------------------------------------------ payload


def test_payload_text():
    cfg = parse_scenario({"payload": {"text": "hello"}})
    assert cfg.payload == b"hello"


def test_payload_size_bytes():
    cfg = parse_scenario({"seed": "s", "payload": {"size_bytes": 37}})
    assert cfg.payload == derive_payload("s", 37)


def test_payload_options_are_exclusive():
    with pytest.raises(ConfigurationError, match="payload"):
        parse_scenario({"payload": {"text": "x", "size_kb": 1}})


def test_payload_size_zero_rejected():
    with pytest.raises(ConfigurationError, match="payload.size_bytes"):
        parse_scenario({"payload": {"size_bytes": 0}})


def test_password_custom():
    cfg = parse_scenario({"password": "open sesame"})
    assert cfg.password == b"open sesame"


# ------------------------------------------------------------------- attack


def test_every_attack_kind_parses():
    for kind in ATTACK_KINDS:
        mapping = {"attack": {"kind": kind}}
        if kind == "corrupt-holder":
            mapping["attack"]["holder"] = 2
        elif kind == "drop-holder":
            mapping["attack"]["drop"] = [3, 4]
        cfg = parse_scenario(mapping)
        assert cfg.attack.kind == kind


def test_attack_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="attack.kind"):
        parse_scenario({"attack": {"kind": "sabotage"}})


def test_corrupt_holder_requires_index():
    with pytest.raises(ConfigurationError, match="attack.holder"):
        parse_scenario({"attack": {"kind": "corrupt-holder"}})


def test_holder_key_only_valid_for_corrupt_holder():
    with pytest.raises(ConfigurationError, match="attack.holder"):
        parse_scenario({"attack": {"kind": "none", "holder": 1}})


def test_drop_holder_requires_indices():
    with pytest.raises(ConfigurationError, match="attack.drop"):
        parse_scenario({"attack": {"kind": "drop-holder"}})


def test_drop_holder_duplicate_index_rejected():
    with pytest.raises(ConfigurationError, match=r"attack.drop\[1\]"):
        parse_scenario({"attack": {"kind": "drop-holder", "drop": [3, 3]}})


def test_drop_holder_index_out_of_range_rejected():
    with pytest.raises(ConfigurationError, match=r"attack.drop\[0\]"):
        parse_scenario({"attack": {"kind": "drop-holder", "drop": [9]}})


# -------------------------------------------------------------------- bench


def test_bench_section():
    cfg = parse_scenario({"bench": {
        "sizes_kb": [2, 4], "repetitions": 3,
        "compare_general_prime": False}})
    assert cfg.bench.sizes_kb == (2, 4)
    assert cfg.bench.repetitions == 3
    assert cfg.bench.compare_general_prime is False


def test_bench_empty_sizes_rejected():
    with pytest.raises(ConfigurationError, match="bench.sizes_kb"):
        parse_scenario({"bench": {"sizes_kb": []}})


# ------------------------------------------------------------------- expect


def test_expect_rows_parse_in_order():
    cfg = parse_scenario({"expect": [
        {"phase": "registration", "outcome": "success"},
        {"phase": "integrity-check", "outcome": "fail"},
    ]})
    assert cfg.expect == (
        Expectation("registration", "success"),
        Expectation("integrity-check", "fail"),
    )


def test_expect_unknown_phase_rejected():
    with pytest.raises(ConfigurationError, match=r"expect\[0\].phase"):
        parse_scenario({"expect": [{"phase": "teardown",
                                    "outcome": "success"}]})


def test_expect_unknown_outcome_rejected():
    with pytest.raises(ConfigurationError, match=r"expect\[0\].outcome"):
        parse_scenario({"expect": [{"phase": "registration",
                                    "outcome": "meh"}]})


# -------------------------------------------------------------------- files


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read scenario file"):
        load_scenario(tmp_path / "nope.yaml")


def test_load_scenario_invalid_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("attack: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="not valid YAML"):
        load_scenario(path)


def test_load_scenario_empty_file_uses_defaults(tmp_path):
    path = tmp_path / "blank.yaml"
    path.write_text("", encoding="utf-8")
    cfg = load_scenario(path)
    assert cfg.name == "blank"
    assert cfg.attack.kind == "none"


def test_load_scenario_name_defaults_to_stem(tmp_path):
    path = tmp_path / "stem-case.yaml"
    path.write_text("seed: zzz\n", encoding="utf-8")
    assert load_scenario(path).name == "stem-case"


def test_repeated_parses_test_the_field_modulus_once():
    is_probable_prime.cache_clear()
    load_scenario(SCENARIO_DIR / "bench.yaml")
    load_scenario(SCENARIO_DIR / "bench.yaml")
    assert is_probable_prime.cache_info().misses == 1


def test_all_shipped_scenarios_parse():
    files = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert len(files) >= 9
    kinds = set()
    for path in files:
        cfg = load_scenario(path)
        kinds.add(cfg.attack.kind)
        if path.stem != "bench":  # bench configs carry no phase verdicts
            assert cfg.expect, \
                "%s should state its expected verdicts" % path.name
    assert set(ATTACK_KINDS) <= kinds


# ------------------------------------------------------------ exact messages

# Two nodes and the link keys every link row needs; the message table
# below adds one bad key to a row at a time.
_AB = [{"name": "A"}, {"name": "B"}]


def _link(**keys):
    return {"topology": {"nodes": _AB, "links": [
        dict({"name": "l", "a": "A", "b": "B", "rate_bps": 1}, **keys)]}}


def _node(**keys):
    return {"topology": {"nodes": [dict({"name": "A"}, **keys)],
                         "links": []}}


_ON_DEFAULT = ("(nodes: Koganei-1, Koganei-2, Koganei-3, Koganei-4, "
               "Ohtemachi-1)")

# (malformed mapping, the whole message it is refused with): at least one
# row for every refusal the parser makes, one error per mapping.
MESSAGES = [
    ([1], "scenario: expected a mapping, got list"),
    ({"layout": 3}, "layout: expected a mapping, got int"),
    ({"clock_skews": [1]}, "clock_skews: expected a mapping, got list"),
    ({"topology": {"nodes": ["A"], "links": []}},
     "topology.nodes[0]: expected a mapping, got str"),
    ({"expect": ["renewal"]}, "expect[0]: expected a mapping, got str"),
    ({"bogus": 1},
     "scenario: unknown key 'bogus' (allowed: attack, bench, clock_skews, "
     "expect, layout, mac, name, outputs, password, payload, placement, "
     "renewal, seed, topology, warmup_ms)"),
    ({"layout": {"n": 4}},
     "layout: unknown key 'n' (allowed: field, holders, threshold)"),
    ({"payload": {"size_mb": 1}},
     "payload: unknown key 'size_mb' (allowed: size_bytes, size_kb, text)"),
    (_link(km=3),
     "topology.links[0]: unknown key 'km' (allowed: a, b, capacity_bits, "
     "length_km, loss_db, name, rate_bps)"),
    ({"expect": [{"phase": "renewal", "outcome": "success", "why": "x"}]},
     "expect[0]: unknown key 'why' (allowed: outcome, phase)"),
    # strings
    ({"name": ""}, "name: expected a non-empty string"),
    ({"seed": 5}, "seed: expected a non-empty string"),
    ({"password": 7}, "password: expected a non-empty string"),
    ({"topology": {"nodes": [{}], "links": []}},
     "topology.nodes[0].name: expected a non-empty string"),
    ({"topology": {"nodes": [{"name": "A"}],
                   "links": [{"name": "l", "a": "A", "rate_bps": 1}]}},
     "topology.links[0].b: expected a non-empty string"),
    ({"outputs": {"csv": 3}}, "outputs.csv: expected a non-empty string"),
    ({"mac": {"scheme": 4}}, "mac.scheme: expected a non-empty string"),
    ({"renewal": {"group": 4}}, "renewal.group: expected a non-empty string"),
    ({"placement": {"owner": 1}},
     "placement.owner: expected a non-empty string"),
    ({"placement": {"holders": ["Koganei-1", 2, "Koganei-3", "Koganei-4"]}},
     "placement.holders[1]: expected a non-empty string"),
    ({"payload": {"text": ""}}, "payload.text: expected a non-empty string"),
    ({"payload": {"text": None}}, "payload.text: expected a non-empty string"),
    ({"attack": {"kind": 3}}, "attack.kind: expected a non-empty string"),
    ({"expect": [{"outcome": "success"}]},
     "expect[0].phase: expected a non-empty string"),
    # integers
    ({"warmup_ms": "x"}, "warmup_ms: expected an integer"),
    ({"warmup_ms": True}, "warmup_ms: expected an integer"),
    ({"warmup_ms": -1}, "warmup_ms: must be >= 0"),
    ({"layout": {"threshold": 3.0}}, "layout.threshold: expected an integer"),
    ({"layout": {"holders": 1}}, "layout.holders: must be >= 2"),
    ({"mac": {"k": 0}}, "mac.k: must be >= 1"),
    ({"mac": {"cs_tag_bits": "wide"}}, "mac.cs_tag_bits: expected an integer"),
    ({"renewal": {"rounds": -1}}, "renewal.rounds: must be >= 0"),
    (_node(entropy_rate_bps=-1),
     "topology.nodes[0].entropy_rate_bps: must be >= 0"),
    (_node(entropy_capacity_bits=0),
     "topology.nodes[0].entropy_capacity_bits: must be >= 1"),
    (_node(initial_entropy_bits=-5),
     "topology.nodes[0].initial_entropy_bits: must be >= 0"),
    (_link(rate_bps=None), "topology.links[0].rate_bps: expected an integer"),
    (_link(rate_bps=-1), "topology.links[0].rate_bps: must be >= 0"),
    (_link(capacity_bits=0), "topology.links[0].capacity_bits: must be >= 1"),
    ({"payload": {"size_bytes": 0}}, "payload.size_bytes: must be >= 1"),
    ({"payload": {"size_bytes": None}},
     "payload.size_bytes: expected an integer"),
    ({"payload": {"size_bytes": 10 * 1024 * 1024 + 1}},
     "payload.size_bytes: must be <= 10485760"),
    ({"payload": {"size_kb": 10241}}, "payload.size_kb: must be <= 10240"),
    ({"attack": {"kind": "corrupt-holder"}},
     "attack.holder: expected an integer"),
    ({"attack": {"kind": "corrupt-holder", "holder": 5}},
     "attack.holder: must be <= 4"),
    ({"attack": {"kind": "drop-holder", "drop": [0]}},
     "attack.drop[0]: must be >= 1"),
    ({"bench": {"sizes_kb": [1, 10241]}}, "bench.sizes_kb[1]: must be <= 10240"),
    ({"bench": {"repetitions": 0}}, "bench.repetitions: must be >= 1"),
    # booleans and numbers
    ({"bench": {"compare_general_prime": "yes"}},
     "bench.compare_general_prime: expected true or false"),
    ({"topology": {"rate_scale": "fast"}},
     "topology.rate_scale: expected a number"),
    ({"topology": {"capacity_scale": -1}},
     "topology.capacity_scale: must be >= 0"),
    (_link(length_km=-2.5), "topology.links[0].length_km: must be >= 0"),
    (_link(loss_db=True), "topology.links[0].loss_db: expected a number"),
    # lists
    ({"expect": "all"}, "expect: expected a list"),
    ({"topology": {"nodes": {"name": "A"}, "links": []}},
     "topology.nodes: expected a list"),
    ({"topology": {"nodes": [], "links": "l"}},
     "topology.links: expected a list"),
    ({"placement": {"holders": "Koganei-1"}},
     "placement.holders: expected a list"),
    ({"attack": {"kind": "drop-holder", "drop": 3}},
     "attack.drop: expected a list"),
    ({"bench": {"sizes_kb": 10}}, "bench.sizes_kb: expected a list"),
    # layout
    ({"layout": {"field": "mersenne7"}},
     "layout.field: expected mersenne127|mersenne31|mersenne61 or a decimal "
     "prime"),
    ({"layout": {"field": 15}}, "layout.field: field modulus 15 is not prime"),
    ({"layout": {"field": "21"}}, "layout.field: field modulus 21 is not prime"),
    ({"layout": {"holders": 2}}, "layout: need t_sh <= n_sh"),
    ({"layout": {"threshold": 2}},
     "layout: masked reconstruction requires t_sh = 3"),
    ({"layout": {"field": 3}},
     "layout: holder indices 1..4 are not distinct and nonzero mod 3"),
    # mac
    ({"mac": {"scheme": "toeplitz"}}, "mac.scheme: expected one of: polyeval"),
    ({"mac": {"k": 20}},
     "mac.k: tags are whole bytes, so k must be a multiple of 8, got 20"),
    ({"mac": {"k": 8}},
     "mac.k: PolyEval needs k >= 16 for whole-byte blocks, got 8"),
    ({"mac": {"cs_tag_bits": 256}},
     "mac.cs_tag_bits: must differ from k = 256: the verifier tells a "
     "digest row from a tag row by width"),
    ({"mac": {"cs_tag_bits": 1024}},
     "mac.cs_tag_bits: must be a multiple of 8 in [8, 512], got 1024"),
    # renewal
    ({"renewal": {"group": "nope"}},
     "renewal.group: unknown renewal group 'nope' (have: mersenne127, "
     "rfc5114, toy)"),
    ({"layout": {"field": "mersenne61"}, "renewal": {"rounds": 1}},
     "renewal.group: renewal rounds requested but no group given and the "
     "field has no default group"),
    ({"renewal": {"rounds": 1, "group": "toy"}},
     "renewal.group: subgroup order 11 does not match the share field "
     "modulus 170141183460469231731687303715884105727"),
    # topology
    (_link(b="A"), "topology.links[0]: link l joins a node to itself"),
    ({"topology": {"nodes": [{"name": "A"}]}},
     "topology: custom topologies need both nodes and links"),
    ({"topology": {"links": []}},
     "topology: custom topologies need both nodes and links"),
    ({"topology": {"nodes": [{"name": "A"}],
                   "links": [{"name": "l", "a": "A", "b": "Z", "rate_bps": 1}]}},
     "topology: link l references an unknown node"),
    ({"topology": {"nodes": [{"name": "A"}, {"name": "A"}], "links": []}},
     "topology: duplicate node names"),
    ({"topology": {"nodes": _AB, "links": []}},
     "topology: topology is not connected"),
    # present but null, nodes and links still select a custom topology
    ({"topology": {"nodes": None, "links": None}},
     "placement.holders: no default placement covers 4 holders on this "
     "topology; list the holder nodes explicitly"),
    # placement
    ({"placement": {"owner": "Mars"}},
     "placement.owner: node 'Mars' is not in the topology " + _ON_DEFAULT),
    ({"placement": {"verifier": "Mars"}},
     "placement.verifier: node 'Mars' is not in the topology " + _ON_DEFAULT),
    (dict(_link(), placement={"holders": ["A", "B", "A", "B"]}),
     "placement.owner: node 'Ohtemachi-1' is not in the topology (nodes: "
     "A, B)"),
    ({"layout": {"holders": 9}},
     "placement.holders: no default placement covers 9 holders on this "
     "topology; list the holder nodes explicitly"),
    ({"placement": {"holders": ["Koganei-1"]}},
     "placement.holders: expected 4 holder nodes, got 1"),
    ({"placement": {"holders": ["Koganei-1", "Koganei-2", "Koganei-3",
                                "Mars"]}},
     "placement.holders[3]: node 'Mars' is not in the topology"),
    # clock skews
    ({"clock_skews": {"holder-5": 1}},
     "clock_skews.holder-5: unknown role (valid: calculator, end-user, "
     "holder-1, holder-2, holder-3, holder-4, owner, verifier)"),
    ({"clock_skews": {"verifier": 1.5}},
     "clock_skews.verifier: expected an integer millisecond offset"),
    ({"clock_skews": {"owner": False}},
     "clock_skews.owner: expected an integer millisecond offset"),
    # payload: keys are chosen by presence, so null counts as given
    ({"payload": {"size_kb": 1, "text": "x"}},
     "payload: give exactly one of size_kb, size_bytes, text"),
    ({"payload": {"size_kb": None, "text": None}},
     "payload: give exactly one of size_kb, size_bytes, text"),
    # attack
    ({"attack": {"kind": "ddos"}},
     "attack.kind: expected one of: none, tamper-owner, false-claim-user, "
     "corrupt-holder, drop-holder, bit-flip-channel, wrong-password"),
    ({"attack": {"kind": "none", "holder": 1}},
     "attack.holder: only valid for kind corrupt-holder"),
    ({"attack": {"kind": "drop-holder", "drop": []}},
     "attack.drop: expected a non-empty list of holder indices"),
    ({"attack": {"kind": "drop-holder"}},
     "attack.drop: expected a non-empty list of holder indices"),
    ({"attack": {"kind": "drop-holder", "drop": [2, 3, 2]}},
     "attack.drop[2]: duplicate holder index 2"),
    ({"attack": {"kind": "corrupt-holder", "holder": 1, "drop": [1]}},
     "attack.drop: only valid for kind drop-holder"),
    # bench and expect
    ({"bench": {"sizes_kb": []}}, "bench.sizes_kb: expected a non-empty list"),
    ({"expect": [{"phase": "audit", "outcome": "success"}]},
     "expect[0].phase: expected one of: registration, reconstruction, "
     "integrity-check, refutation, renewal"),
    ({"expect": [{"phase": "renewal", "outcome": "maybe"}]},
     "expect[0].outcome: expected one of: success, fail, abort"),
    # a number past the float range, or not a number at all, has no scale
    # and no length
    ({"topology": {"rate_scale": float("inf")}},
     "topology.rate_scale: expected a finite number"),
    ({"topology": {"rate_scale": float("nan")}},
     "topology.rate_scale: expected a finite number"),
    ({"topology": {"capacity_scale": float("inf")}},
     "topology.capacity_scale: expected a finite number"),
    ({"topology": {"capacity_scale": float("nan")}},
     "topology.capacity_scale: expected a finite number"),
    ({"topology": {"rate_scale": 10 ** 400}},
     "topology.rate_scale: expected a finite number"),
    (_link(length_km=float("nan")),
     "topology.links[0].length_km: expected a finite number"),
    (_link(loss_db=float("inf")),
     "topology.links[0].loss_db: expected a finite number"),
    ({"topology": {"rate_scale": 1e308}},
     "topology.rate_scale: scales entropy_rate_bps past the float range"),
    ({"topology": {"capacity_scale": 1e308}},
     "topology.capacity_scale: scales entropy_capacity_bits past the float "
     "range"),
]


@pytest.mark.parametrize("mapping,message", MESSAGES, ids=[
    "%d-%s" % (i, m.split(":")[0].split("[")[0])
    for i, (_, m) in enumerate(MESSAGES)])
def test_malformed_mapping_is_refused_with_its_exact_message(mapping, message):
    with pytest.raises(ConfigurationError) as info:
        parse_scenario(mapping)
    assert str(info.value) == message


def test_a_scenario_naming_two_links_alike_is_refused():
    mapping = {"topology": {
        "nodes": [{"name": "A"}, {"name": "B"}, {"name": "C"}],
        "links": [{"name": "l", "a": "A", "b": "B", "rate_bps": 1},
                  {"name": "l", "a": "B", "b": "C", "rate_bps": 1}]}}
    with pytest.raises(ConfigurationError) as info:
        parse_scenario(mapping)
    assert str(info.value) == "topology: duplicate link names"
