"""Dataset pipeline tests: seeding, subsampling, normalization, and I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import revode.data
from revode.data import (
    GRID_STEP_RTOL,
    PURPOSE_GRAPH,
    PURPOSE_INIT,
    PURPOSE_NOISE,
    SIM_DEFAULTS,
    TRAJECTORIES_PER_SEED,
    ObservationSet,
    _traj_record,
    add_gaussian_noise,
    build_observation_sets,
    build_trajectories,
    build_trajectory,
    draw_initial_state,
    irregular_subsample,
    normalize_trajectories,
    read_dataset,
    rng_stream,
    sample_graph_with_rng,
    write_dataset,
)
from revode.errors import ConfigurationError, DatasetFormatError, IntegrationError, RevodeError
from revode.integrators import TimeGrid, Trajectory, integrate
from revode.systems import SYSTEM_KINDS, InteractionGraph, SystemSpec, make_derivative


# ------------------------------------------------------------------- rng

def test_rng_stream_is_reproducible():
    a = rng_stream(7, 3, PURPOSE_INIT).standard_normal(5)
    b = rng_stream(7, 3, PURPOSE_INIT).standard_normal(5)
    assert np.array_equal(a, b)


def test_rng_stream_separates_purposes_and_items():
    base = rng_stream(7, 3, PURPOSE_INIT).standard_normal(5)
    other_purpose = rng_stream(7, 3, PURPOSE_NOISE).standard_normal(5)
    other_item = rng_stream(7, 4, PURPOSE_INIT).standard_normal(5)
    other_seed = rng_stream(8, 3, PURPOSE_INIT).standard_normal(5)
    for other in (other_purpose, other_item, other_seed):
        assert not np.array_equal(base, other)


# ---------------------------------------------------------- trajectories

def test_sim_defaults_cover_every_kind():
    assert set(SIM_DEFAULTS) == set(SYSTEM_KINDS)


def test_build_trajectory_is_deterministic():
    spec = SystemSpec(kind="simple_spring", n_agents=3, dim=2)
    a = build_trajectory(spec, seed=1, index=4, raw_steps=500)
    b = build_trajectory(spec, seed=1, index=4, raw_steps=500)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.times, b.times)


def test_build_trajectory_varies_with_index():
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1)
    a = build_trajectory(spec, seed=1, index=0, raw_steps=300)
    b = build_trajectory(spec, seed=1, index=1, raw_steps=300)
    assert not np.array_equal(a.q, b.q)


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_build_trajectory_is_its_sampled_system_integrated(kind):
    """Each trajectory of one build_trajectories call is its own sampled
    system integrated alone from its own start and noised from its own
    stream, bit for bit, and records that system, its tag and a unit scale;
    build_trajectory, the call over one index, gives the same bits."""
    n_agents = {"triple_pendulum": 3, "attractor": 1}.get(kind, 4)
    base = SystemSpec(kind=kind, n_agents=n_agents, dim=2)
    indices = [3, 0, 7, 1]
    options = dict(raw_steps=40, subsample_every=10, edge_prob=0.5, noise_sigma=0.01)
    batch = build_trajectories(base, 9, indices, **options)
    assert len(batch) == len(indices)
    if base.is_spring:  # the members' springs differ, so a shared graph would show
        assert len({str(traj.system["edges"]) for traj in batch}) > 1
    scheme, dt, _ = SIM_DEFAULTS[kind]
    for index, traj in zip(indices, batch):
        spec = base
        if base.is_spring:
            graph = sample_graph_with_rng(n_agents, 0.5, rng_stream(9, index, PURPOSE_GRAPH))
            spec = SystemSpec(kind=kind, n_agents=n_agents, dim=2, graph=graph)
        tag = (9 << 16) + index
        assert traj.system == spec.params_dict()
        assert (traj.seed, traj.scale) == (tag, 1.0)
        state0 = draw_initial_state(spec, rng_stream(9, index, PURPOSE_INIT))
        clean = integrate(make_derivative(spec), state0, TimeGrid(0.0, dt, 40), scheme, 10)
        want = add_gaussian_noise(clean, 0.01, tag)
        alone = build_trajectory(base, seed=9, index=index, **options)
        for name in ("times", "q", "p"):
            assert getattr(traj, name).tobytes() == getattr(want, name).tobytes()
            assert getattr(alone, name).tobytes() == getattr(want, name).tobytes()


def test_build_trajectories_keeps_a_graph_the_spec_gives():
    """Only a spring spec without a graph gets sampled graphs."""
    chain = InteractionGraph.chain(4)
    spec = SystemSpec(kind="simple_spring", n_agents=4, dim=1, graph=chain)
    for traj in build_trajectories(spec, 1, range(3), raw_steps=200, edge_prob=0.5):
        assert traj.system["edges"] == chain.edges()


def test_build_trajectories_names_the_item_that_escapes():
    """A spring far too stiff for the step sends its members to infinity;
    the error names the first item's index, not its place in the call."""
    spec = SystemSpec(kind="simple_spring", n_agents=1, dim=1, k=1e6)
    with pytest.raises(IntegrationError, match="trajectory 5 left the finite range by t=200"):
        build_trajectories(spec, 0, [5, 2], raw_steps=200, dt=1.0, subsample_every=100)


def test_build_trajectory_rejects_index_outside_its_16_bits():
    """The index sits below the seed in (seed << 16) + index, so index 2**16
    under seed s would share its tag and noise stream with index 0 under s + 1."""
    spec = SystemSpec(kind="simple_spring", n_agents=1, dim=1)
    last = build_trajectory(spec, seed=2, index=TRAJECTORIES_PER_SEED - 1, raw_steps=200,
                            noise_sigma=0.01)
    assert last.seed == (2 << 16) + TRAJECTORIES_PER_SEED - 1
    for index in (TRAJECTORIES_PER_SEED, TRAJECTORIES_PER_SEED + 5, -1):
        with pytest.raises(ConfigurationError, match="trajectory index"):
            build_trajectory(spec, seed=1, index=index, raw_steps=200, noise_sigma=0.01)


def test_build_trajectory_subsampling_count():
    spec = SystemSpec(kind="simple_spring", n_agents=1, dim=1)
    traj = build_trajectory(spec, seed=0, index=0, raw_steps=500,
                            dt=0.001, subsample_every=100)
    assert traj.n_points == 6  # 500/100 + the initial state
    assert traj.times[1] - traj.times[0] == pytest.approx(0.1)


def test_build_trajectory_noise_is_additive_and_seeded():
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1)
    clean = build_trajectory(spec, seed=3, index=0, raw_steps=400, noise_sigma=0.0)
    noisy = build_trajectory(spec, seed=3, index=0, raw_steps=400, noise_sigma=0.01)
    again = build_trajectory(spec, seed=3, index=0, raw_steps=400, noise_sigma=0.01)
    assert not np.array_equal(clean.q, noisy.q)
    assert np.array_equal(noisy.q, again.q)
    # noise magnitude should look like sigma, not like the signal
    assert np.max(np.abs(noisy.q - clean.q)) < 0.1


def test_add_gaussian_noise_leaves_times_alone():
    spec = SystemSpec(kind="simple_spring", n_agents=1, dim=1)
    traj = build_trajectory(spec, seed=0, index=0, raw_steps=200)
    noised = add_gaussian_noise(traj, 0.05, rng_seed=42)
    assert np.array_equal(noised.times, traj.times)
    assert noised.q.shape == traj.q.shape


def integrate_must_not_run(*args, **kwargs):
    raise AssertionError("integrate ran on input that is rejected before it")


@pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
def test_build_trajectory_rejects_bad_noise_sigma(sigma, monkeypatch):
    """Before any integration: a bad sigma used to surface only after the
    whole set was integrated."""
    monkeypatch.setattr(revode.data, "integrate", integrate_must_not_run)
    spec = SystemSpec(kind="simple_spring", n_agents=1, dim=1)
    with pytest.raises(ConfigurationError, match="noise sigma"):
        build_trajectory(spec, seed=0, index=0, raw_steps=200, noise_sigma=sigma)


def test_build_trajectories_rejects_no_indices(monkeypatch):
    monkeypatch.setattr(revode.data, "integrate", integrate_must_not_run)
    spec = SystemSpec(kind="damped_spring", n_agents=3, dim=2)
    with pytest.raises(ConfigurationError, match="at least one trajectory index"):
        build_trajectories(spec, 0, [], 200, edge_prob=0.5)


def test_trajectory_metadata_records_system():
    spec = SystemSpec(kind="damped_spring", n_agents=2, dim=1, gamma=0.5)
    traj = build_trajectory(spec, seed=5, index=2, raw_steps=300)
    assert traj.system["kind"] == "damped_spring"
    assert traj.system["gamma"] == 0.5
    assert traj.seed == (5 << 16) + 2


def test_sample_graph_draws_the_pairs_of_the_row_major_pair_loop():
    """One draw per unordered pair, in (0, 1), (0, 2), ..., (1, 2), ... order."""
    for n in (2, 3, 5, 8):
        for p in (0.0, 0.3, 0.5, 1.0):
            for stream in range(5):
                rng = rng_stream(stream, n, PURPOSE_GRAPH)
                want = np.zeros((n, n), dtype=bool)
                for i in range(n):
                    for j in range(i + 1, n):
                        want[i, j] = want[j, i] = rng.random() < p
                graph = sample_graph_with_rng(n, p, rng_stream(stream, n, PURPOSE_GRAPH))
                assert np.array_equal(graph.adjacency, want)


# --------------------------------------------------------- normalization

def test_normalize_scales_union_peak_to_one():
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1)
    g1 = [build_trajectory(spec, seed=1, index=i, raw_steps=300) for i in range(3)]
    g2 = [build_trajectory(spec, seed=2, index=i, raw_steps=300) for i in range(2)]
    (n1, n2), scale = normalize_trajectories([g1, g2])
    peak = max(
        float(np.max(np.abs(t.features()))) for t in n1 + n2
    )
    assert peak == pytest.approx(1.0)
    # one shared scale, recorded on every trajectory
    assert all(t.scale == scale for t in n1 + n2)
    # multiplying back restores the originals bitwise-close
    assert np.allclose(n1[0].q * scale, g1[0].q, atol=0.0, rtol=0.0)


def test_normalize_handles_degenerate_zero_data():
    traj = Trajectory(times=np.array([0.0, 1.0]),
                      q=np.zeros((2, 1, 1)), p=np.zeros((2, 1, 1)))
    (group,), scale = normalize_trajectories([[traj]])
    assert scale == 1.0
    assert np.array_equal(group[0].q, traj.q)


# ------------------------------------------------------------ subsampling

def make_ramp_trajectory(n_points=60, n_agents=2):
    """Times 0,1,2,... and features equal to the time index (easy to read)."""
    times = np.arange(n_points, dtype=np.float64)
    q = np.tile(times[:, None, None], (1, n_agents, 1))
    p = -q.copy()
    return Trajectory(times=times, q=q, p=p)


def test_irregular_subsample_window_semantics():
    traj = make_ramp_trajectory()
    window = (0, 30, 50)
    obs = irregular_subsample(traj, 5, 10, window, rng_seed=123)
    assert obs.n_rollout_steps == 20
    assert obs.t0 == 29.0
    for i in range(obs.n_agents):
        assert np.all(obs.cond_times[i] <= 0)
        assert len(obs.cond_times[i]) + len(obs.pred_idx[i]) >= 5
        assert len(obs.cond_times[i]) + len(obs.pred_idx[i]) <= 10
        assert obs.pred_idx[i].min() >= 1
        assert obs.pred_idx[i].max() <= 20
        # the ramp makes the recorded features self-describing
        assert np.array_equal(obs.cond_feats[i][:, 0], obs.cond_times[i] + 29.0)
        assert np.array_equal(obs.pred_feats[i][:, 0], obs.pred_idx[i] + 29.0)


def test_irregular_subsample_is_seeded():
    traj = make_ramp_trajectory()
    a = irregular_subsample(traj, 5, 10, (0, 30, 50), rng_seed=9, item_index=2)
    b = irregular_subsample(traj, 5, 10, (0, 30, 50), rng_seed=9, item_index=2)
    c = irregular_subsample(traj, 5, 10, (0, 30, 50), rng_seed=9, item_index=3)
    assert all(np.array_equal(x, y) for x, y in zip(a.cond_times, b.cond_times))
    assert any(
        not np.array_equal(x, y) or len(x) != len(y)
        for x, y in zip(a.cond_times, c.cond_times)
    )


def test_irregular_subsample_validates_window():
    traj = make_ramp_trajectory(n_points=40)
    with pytest.raises(ConfigurationError):
        irregular_subsample(traj, 5, 10, (0, 30, 50), rng_seed=0)  # hi > n_points
    with pytest.raises(ConfigurationError):
        irregular_subsample(traj, 5, 10, (10, 10, 30), rng_seed=0)  # lo == split
    with pytest.raises(ConfigurationError):
        irregular_subsample(traj, 0, 10, (0, 20, 40), rng_seed=0)  # n_obs_min < 1
    with pytest.raises(ConfigurationError):
        irregular_subsample(traj, 9, 5, (0, 20, 40), rng_seed=0)  # min > max


def test_build_observation_sets_uses_item_index():
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1)
    trajs = [build_trajectory(spec, seed=1, index=i, raw_steps=5000) for i in range(3)]
    sets = build_observation_sets(trajs, (0, 30, 50), 5, 10, obs_seed=77)
    assert len(sets) == 3
    # different items draw different observation patterns
    assert not all(
        np.array_equal(sets[0].cond_times[0], s.cond_times[0]) for s in sets[1:]
    )


def test_observation_set_validation():
    good = dict(
        n_agents=1, d=2, t0=0.0, dt=0.1, n_rollout_steps=5,
        cond_times=[np.array([-0.2, 0.0])],
        cond_feats=[np.zeros((2, 2))],
        pred_idx=[np.array([1, 5], dtype=np.int64)],
        pred_feats=[np.zeros((2, 2))],
    )
    ObservationSet(**good)

    bad_order = dict(good, cond_times=[np.array([0.0, -0.2])])
    with pytest.raises(ConfigurationError):
        ObservationSet(**bad_order)

    late = dict(good, cond_times=[np.array([-0.2, 0.1])])
    with pytest.raises(ConfigurationError):
        ObservationSet(**late)

    out_of_range = dict(good, pred_idx=[np.array([1, 6], dtype=np.int64)])
    with pytest.raises(ConfigurationError):
        ObservationSet(**out_of_range)

    empty = dict(good, cond_times=[np.array([])], cond_feats=[np.zeros((0, 2))])
    with pytest.raises(ConfigurationError):
        ObservationSet(**empty)


# -------------------------------------------------------------------- I/O

def test_dataset_roundtrip_trajectories(tmp_path):
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=2)
    trajs = [build_trajectory(spec, seed=4, index=i, raw_steps=300) for i in range(2)]
    path = tmp_path / "trajs.jsonl"
    assert write_dataset(path, trajs) == 2
    back = read_dataset(path)
    assert len(back) == 2
    for orig, loaded in zip(trajs, back):
        assert np.array_equal(orig.q, loaded.q)
        assert np.array_equal(orig.p, loaded.p)
        assert np.array_equal(orig.times, loaded.times)
        # JSON renders edge tuples as lists; compare structurally
        norm = lambda sys: {**sys, "edges": [list(e) for e in sys["edges"]]}
        assert norm(orig.system) == norm(loaded.system)
        assert orig.seed == loaded.seed


def test_read_dataset_rejects_an_observation_set_record(tmp_path):
    """Datasets hold trajectories only: an observation-set record, which
    older files could carry, is an unknown record type named by its line."""
    spec = SystemSpec(kind="simple_spring", n_agents=1, dim=1)
    traj = build_trajectory(spec, seed=0, index=0, raw_steps=500)
    obs = {"schema_version": 1, "record": "observation_set", "params": traj.system,
           "t0": 0.0, "dt": 0.1, "n_rollout_steps": 1, "agents": []}
    path = tmp_path / "mixed.jsonl"
    write_dataset(path, [traj])
    with open(path, "a") as fh:
        fh.write(json.dumps(obs) + "\n")
    with pytest.raises(DatasetFormatError, match="line 2: unknown record type 'observation_set'"):
        read_dataset(path)


def test_write_dataset_requires_system_metadata(tmp_path):
    bare = Trajectory(times=np.array([0.0, 1.0]),
                      q=np.zeros((2, 1, 1)), p=np.zeros((2, 1, 1)))
    with pytest.raises(ConfigurationError):
        write_dataset(tmp_path / "bare.jsonl", [bare])


def test_read_dataset_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"record": "mystery"}\n')
    with pytest.raises(DatasetFormatError):
        read_dataset(path)
    path.write_text("not json at all\n")
    with pytest.raises(DatasetFormatError):
        read_dataset(path)


def _valid_records():
    """One trajectory record of a two-agent spring."""
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=1)
    traj = build_trajectory(spec, seed=3, index=0, raw_steps=5000)
    traj = Trajectory(traj.times[:4], traj.q[:4], traj.p[:4], system=traj.system, seed=0)
    return [json.loads(json.dumps(_traj_record(traj)))]


def _field_paths(rec):
    """Every top-level field and every `params` field, as key paths."""
    return [(key,) for key in rec] + [("params", key) for key in rec["params"]]


VALID_RECORDS = _valid_records()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4)
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), value=JSON_VALUES)
def test_read_dataset_field_fuzz_raises_only_revode_errors(tmp_path_factory, data, value):
    """A valid record with one field replaced by any JSON value either
    loads or fails with a RevodeError, never another exception (and never
    allocates a graph for an n_agents its data does not hold)."""
    rec = json.loads(json.dumps(data.draw(st.sampled_from(VALID_RECORDS))))
    *parents, key = data.draw(st.sampled_from(_field_paths(rec)))
    target = rec
    for step in parents:
        target = target[step]
    target[key] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    try:
        read_dataset(path)
    except RevodeError:
        pass


@pytest.mark.parametrize("field, value", [
    ("states", math.nan), ("states", -math.inf), ("times", math.nan), ("times", math.inf),
    ("scale", math.nan), ("scale", math.inf),
])
def test_read_dataset_rejects_non_finite_values_naming_the_line(tmp_path, field, value):
    """NaN or +-inf in a record's states, times or scale is malformed data,
    named by its line: NaN times would otherwise pass the strictly-increasing
    check, since every comparison with NaN is false."""
    good, bad = (json.loads(json.dumps(VALID_RECORDS[0])) for _ in range(2))
    if field == "scale":
        bad["scale"] = value
    else:
        bad[field][2] = value if field == "times" else [value] + bad[field][2][1:]
    path = tmp_path / "non_finite.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DatasetFormatError, match=f"line 2: {field} holds a non-finite value"):
        read_dataset(path)


def test_read_dataset_rejects_times_off_one_uniform_grid_naming_the_line(tmp_path):
    """`irregular_subsample` takes the rollout step from a record's first two
    times, so a record whose steps stray from that one step by more than
    GRID_STEP_RTOL of it is malformed data, named by its line."""
    good, bad, jittered = (json.loads(json.dumps(VALID_RECORDS[0])) for _ in range(3))
    step = good["times"][1] - good["times"][0]
    bad["times"][3] += 0.5 * step
    jittered["times"][3] += 0.5 * GRID_STEP_RTOL * step
    path = tmp_path / "grids.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(jittered) + "\n")
    assert len(read_dataset(path)) == 2
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DatasetFormatError, match="line 2: timestamps are not a uniform grid"):
        read_dataset(path)


def test_read_dataset_rejects_a_record_of_another_feature_width(tmp_path):
    """A batch stacks every sample's agents, so a file whose records differ
    in features per agent is malformed data, named by its line."""
    spec = SystemSpec(kind="simple_spring", n_agents=2, dim=2)
    wide = _traj_record(build_trajectory(spec, seed=3, index=0, raw_steps=300))
    path = tmp_path / "widths.jsonl"
    path.write_text(json.dumps(VALID_RECORDS[0]) + "\n" + json.dumps(wide) + "\n")
    with pytest.raises(DatasetFormatError,
                       match="line 2: 4 features per agent, the first record has 2"):
        read_dataset(path)


def test_read_dataset_checks_n_agents_before_building_the_graph(tmp_path, monkeypatch):
    def no_graph(*args):
        raise AssertionError("graph built before n_agents was checked")

    monkeypatch.setattr(InteractionGraph, "from_edges", staticmethod(no_graph))
    for rec in VALID_RECORDS:
        rec = json.loads(json.dumps(rec))
        rec["params"]["n_agents"] = 10**12
        path = tmp_path / "huge.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(path)


def test_float64_payloads_survive_json_exactly(tmp_path):
    """Serialization must be bit-exact, not round-to-decimal."""
    times = np.array([0.0, 0.1])
    q = np.array([[[np.pi]], [[np.e]]])
    p = np.array([[[1.0 / 3.0]], [[2.0 / 3.0]]])
    system = SystemSpec(kind="simple_spring", n_agents=1, dim=1).params_dict()
    traj = Trajectory(times=times, q=q, p=p, system=system, seed=0)
    path = tmp_path / "exact.jsonl"
    write_dataset(path, [traj])
    loaded = read_dataset(path)[0]
    assert loaded.q.tobytes() == q.tobytes()
    assert loaded.p.tobytes() == p.tobytes()
