"""Scenario-file validation tests.

Every test feeds a plain mapping (or a YAML file) into the loader and
checks either the resulting ScenarioConfig or the dotted-path error
message that pinpoints the offending key.
"""

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
