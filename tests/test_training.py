import copy
import json
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from causalkg.encoder import EncoderConfig, encode_tokens
from causalkg.errors import (
    AlignmentError,
    CausalKgError,
    DanglingReferenceError,
    GraphError,
    InputError,
    SchemaMismatchError,
    SelfLoopError,
)
from causalkg import training
from causalkg.graphs import Span
from causalkg.model import Model, Params, load_model, save_model
from causalkg.schema import load_schema
from causalkg.training import (
    PARAM_GROUPS,
    Example,
    Negatives,
    TrainConfig,
    binary_loss,
    entity_loss,
    example_loss,
    gold_graph,
    grad_check,
    joint_loss,
    load_dataset,
    sample_negatives,
    train,
)

from synth import build_corpus

SCICLAIM = load_schema("sciclaim")


def tiny_example():
    return Example(
        tokens=("smoking", "causes", "cancer", "in", "mice"),
        lemmas=("smoking", "cause", "cancer", "in", "mouse"),
        entities=((Span(0, 1), "factor"), (Span(1, 2), "association"), (Span(2, 3), "factor")),
        attributes=((1, "causation"),),
        relations=((1, 0, "arg0"), (1, 2, "arg1")),
        provenance="tiny",
    )


def tiny_model(seed=0):
    return Model.initialize(
        SCICLAIM,
        EncoderConfig(dimension=8, seed=seed, context_window=1),
        max_span_len=3,
        width_dim=2,
        seed=seed,
    )


def test_load_dataset():
    text = json.dumps([
        {
            "tokens": ["A", "causes", "B"],
            "entities": [
                {"start": 0, "end": 1, "type": "factor"},
                {"start": 1, "end": 2, "type": "association"},
            ],
            "attributes": [{"entity": 1, "type": "causation"}],
            "relations": [{"head": 1, "tail": 0, "type": "arg0"}],
        }
    ])
    (ex,) = load_dataset(text)
    assert ex.tokens == ("A", "causes", "B")
    assert ex.lemmas == ("a", "causes", "b")
    assert ex.entities == ((Span(0, 1), "factor"), (Span(1, 2), "association"))
    assert ex.relations == ((1, 0, "arg0"),)
    assert ex.provenance == "ex0"


def dataset_text(**changes):
    example = {
        "tokens": ["A", "causes", "B"],
        "entities": [{"start": 0, "end": 1, "type": "factor"}, {"start": 2, "end": 3, "type": "factor"}],
        "attributes": [{"entity": 1, "type": "causation"}],
        "relations": [{"head": 1, "tail": 0, "type": "arg0"}],
    }
    for path, value in changes.items():
        *keys, last = path.split(".")
        target = example
        for key in keys:
            target = target[int(key)] if key.isdigit() else target[key]
        target[last] = value
    return json.dumps([{"tokens": ["ok"], "entities": []}, example])


@pytest.mark.parametrize("changes, field", [
    ({"tokens": "abc"}, "'tokens' must be a list of strings"),
    ({"tokens": ["A", 5, "B"]}, "'tokens' must be a list of strings"),
    ({"lemmas": "abc"}, "'lemmas' must be a list of strings"),
    ({"entities.0.start": 0.9, "entities.0.end": 1.5}, "'entities[0].start' must be an integer, got 0.9"),
    ({"entities.1.end": 3.0}, "'entities[1].end' must be an integer"),
    ({"relations.0.head": True}, "'relations[0].head' must be an integer, got True"),
    ({"relations.0.tail": "0"}, "'relations[0].tail' must be an integer"),
    ({"attributes.0.entity": 1.0}, "'attributes[0].entity' must be an integer"),
])
def test_load_dataset_rejects_mistyped_fields(changes, field):
    with pytest.raises(GraphError) as exc:
        load_dataset(dataset_text(**changes))
    assert f"dataset example 1: field {field}" in str(exc.value)


@pytest.mark.parametrize("text", ['{"tokens": []}', "[5]", '["abc"]'])
def test_load_dataset_rejects_a_non_list_of_objects(text):
    with pytest.raises(GraphError):
        load_dataset(text)


def test_gold_graph():
    g = gold_graph(tiny_example())
    assert {e.id for e in g.entities} == {"e0", "e1", "e2"}
    assert g.entity_by_id()["e1"].attributes == (("causation", 1.0),)
    assert {(r.head, r.tail, r.relation_type) for r in g.relations} == {
        ("e1", "e0", "arg0"), ("e1", "e2", "arg1")
    }
    assert all(e.confidence == 1.0 for e in g.entities)


def test_sample_negatives_zero_counts():
    neg = sample_negatives(tiny_example(), 0, 0, max_span_len=3)
    assert neg.spans == () and neg.pairs == ()


@pytest.mark.parametrize("counts", [(-1, 2), (2, -1)])
def test_sample_negatives_rejects_a_negative_count(counts):
    # a negative span count used to reach numpy's "negative dimensions are not allowed"
    with pytest.raises(InputError, match="^negative sample counts must be >= 0$"):
        sample_negatives(build_corpus()[0], *counts, 10, seed=0)


@pytest.mark.parametrize("bad", [2.5, "3", True])
@pytest.mark.parametrize("position, name", [
    (0, "neg_entity_count"), (1, "neg_relation_count"), (2, "max_span_len"), (3, "seed"),
])
def test_sample_negatives_reads_its_counts_as_integers(position, name, bad):
    # each used to raise a bare TypeError from numpy or range, or to count True as 1
    args = [2, 2, 10, 0]
    args[position] = bad
    with pytest.raises(InputError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
        sample_negatives(build_corpus()[0], *args[:3], seed=args[3])


def test_sample_negatives_refuses_a_negative_seed():
    # it used to reach numpy's bare ValueError; a SeedSequence, which train
    # hands over, passes as before
    with pytest.raises(InputError, match="^seed must be >= 0, got -1$"):
        sample_negatives(build_corpus()[0], 2, 1, 3, seed=-1)
    ex = build_corpus()[0]
    sequence = sample_negatives(ex, 2, 1, 3, seed=np.random.SeedSequence([5, 0, 1]))
    assert sequence == sample_negatives(ex, 2, 1, 3, seed=np.random.SeedSequence([5, 0, 1]))


def test_sample_negatives_contract():
    ex = tiny_example()
    neg = sample_negatives(ex, 5, 3, max_span_len=3, seed=2)
    gold_spans = {s for s, _ in ex.entities}
    assert len(neg.spans) == 5
    assert len(set(neg.spans)) == 5  # without replacement
    assert not (set(neg.spans) & gold_spans)
    linked = {(h, t) for h, t, _ in ex.relations}
    assert len(neg.pairs) == 3
    for h, t in neg.pairs:
        assert h != t and (h, t) not in linked
        assert 0 <= h < 3 and 0 <= t < 3  # drawn from gold entities only


def test_sample_negatives_deterministic():
    ex = tiny_example()
    a = sample_negatives(ex, 8, 4, max_span_len=3, seed=5)
    b = sample_negatives(ex, 8, 4, max_span_len=3, seed=5)
    c = sample_negatives(ex, 8, 4, max_span_len=3, seed=6)
    assert a == b
    assert a != c


def test_entity_loss_hand_computed():
    # single span, 2 classes: CE = -ln p(target)
    probs = np.array([[0.3, 0.7]])
    assert abs(entity_loss(probs, np.array([1])) - (-math.log(0.7))) < 1e-12
    assert entity_loss(np.zeros((0, 2)), np.zeros(0, dtype=int)) == 0.0
    with pytest.raises(AlignmentError):
        entity_loss(probs, np.array([0, 1]))


def test_binary_loss_hand_computed():
    scores = np.array([[0.9, 0.2]])
    labels = np.array([[1.0, 0.0]])
    expected = -(math.log(0.9) + math.log(0.8)) / 2.0
    assert abs(binary_loss(scores, labels) - expected) < 1e-12
    assert binary_loss(np.zeros((0, 3)), np.zeros((0, 3))) == 0.0
    with pytest.raises(AlignmentError):
        binary_loss(scores, labels.T)


def test_joint_loss_additivity_and_clamping():
    lb = joint_loss(
        np.array([[0.25, 0.75]]), np.array([1]),
        np.array([[0.4]]), np.array([[1.0]]),
        np.array([[0.5]]), np.array([[0.0]]),
    )
    assert lb.total == lb.entity + lb.relation + lb.attribute
    # perfect one-hot predictions cost ~0 after clamping
    perfect = joint_loss(
        np.array([[0.0, 1.0]]), np.array([1]),
        np.array([[1.0]]), np.array([[1.0]]),
        np.array([[0.0]]), np.array([[0.0]]),
    )
    assert perfect.total <= 1e-9
    # no relations / attributes -> total is just the entity term
    only_e = joint_loss(
        np.array([[0.25, 0.75]]), np.array([1]),
        np.zeros((0, 1)), np.zeros((0, 1)),
        np.zeros((0, 1)), np.zeros((0, 1)),
    )
    assert only_e.total == only_e.entity


def test_grad_check_full_model():
    errors = grad_check(tiny_model(seed=1), tiny_example())
    assert set(errors) == set(PARAM_GROUPS) | {"max"}
    assert errors["max"] < 1e-4


def test_grad_check_single_token_span():
    # attention over one-token spans is purely linear in the heads
    ex = Example(
        tokens=("a", "b"), lemmas=("a", "b"),
        entities=((Span(0, 1), "factor"),), attributes=(), relations=(),
        provenance="one",
    )
    errors = grad_check(tiny_model(seed=2), ex, negatives=Negatives((), ()))
    assert errors["max"] < 1e-6


def test_grad_check_epsilon_bounds():
    with pytest.raises(ValueError) as raised:
        grad_check(tiny_model(), tiny_example(), epsilon=1e-2)
    assert isinstance(raised.value, CausalKgError)
    # a non-number used to raise a bare TypeError from the comparison
    for epsilon in ("x", None, True):
        with pytest.raises(InputError, match=re.escape(f"epsilon must be a number, got {epsilon!r}")):
            grad_check(tiny_model(), tiny_example(), epsilon=epsilon)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="unknown_key"):
        TrainConfig.from_dict({"epochs": 3, "unknown_key": 1})
    assert TrainConfig.from_dict({"epochs": 3}).epochs == 3


@pytest.mark.parametrize("data, field", [
    ({"epochs": "2"}, "epochs"),
    ({"batch_size": 1.5}, "batch_size"),
    ({"seed": True}, "seed"),
    ({"max_span_len": None}, "max_span_len"),
    ({"learning_rate": "fast"}, "learning_rate"),
    ({"learning_rate": False}, "learning_rate"),
    ({"theta_a": [0.5]}, "theta_a"),
    ({"learning_rat": 5}, "learning_rat"),
])
def test_train_config_rejects_mistyped_and_unknown_fields(data, field):
    with pytest.raises(ValueError, match=field):
        TrainConfig.from_dict(data)


def test_train_config_value_checks():
    assert TrainConfig.from_dict({"learning_rate": 5}).learning_rate == 5
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError, match="object"):
        TrainConfig.from_dict([["epochs", 2]])
    for counts in ({"neg_entity_count": -1}, {"neg_relation_count": -1}):
        with pytest.raises(InputError, match="negative sample counts must be >= 0"):
            TrainConfig(**counts)


def test_train_zero_epochs_is_initialization():
    enc = EncoderConfig(dimension=8, seed=0, context_window=1)
    cfg = TrainConfig(epochs=0, max_span_len=3, seed=4)
    m = train([tiny_example()], SCICLAIM, cfg, encoder_config=enc, width_dim=2)
    init = Model.initialize(SCICLAIM, enc, max_span_len=3, width_dim=2, seed=4)
    for name in PARAM_GROUPS:
        assert np.array_equal(
            np.atleast_1d(getattr(m, name)), np.atleast_1d(getattr(init, name))
        )


def test_train_deterministic_per_seed():
    dataset = build_corpus()[:4]
    enc = EncoderConfig(dimension=8, seed=0, context_window=1)
    cfg = TrainConfig(epochs=3, max_span_len=3, seed=11,
                      neg_entity_count=10, neg_relation_count=5)
    m1 = train(dataset, SCICLAIM, cfg, encoder_config=enc, width_dim=2)
    m2 = train(dataset, SCICLAIM, cfg, encoder_config=enc, width_dim=2)
    for name in PARAM_GROUPS:
        assert np.array_equal(
            np.atleast_1d(getattr(m1, name)), np.atleast_1d(getattr(m2, name))
        )


def test_trained_model_shares_no_buffer_with_its_copies(tmp_path):
    # train keeps the parameter groups as views of one buffer; a copy or a
    # reloaded model must own its own arrays
    enc = EncoderConfig(dimension=8, seed=0, context_window=1)
    cfg = TrainConfig(epochs=2, max_span_len=3, seed=5, neg_entity_count=4, neg_relation_count=2)
    model = train(build_corpus()[:3], SCICLAIM, cfg, encoder_config=enc, width_dim=2)
    path = str(tmp_path / "model.json")
    save_model(model, path)
    before = {name: getattr(model, name).tobytes() for name in PARAM_GROUPS}
    for other in (model.copy(), load_model(path)):
        for name in PARAM_GROUPS:
            assert not any(np.shares_memory(getattr(model, name), getattr(other, o)) for o in PARAM_GROUPS), name
            getattr(other, name)[...] += 1.0
        assert {name: getattr(model, name).tobytes() for name in PARAM_GROUPS} == before
    # the groups are views of one buffer that overlap nowhere
    for i, name in enumerate(PARAM_GROUPS):
        assert not any(np.shares_memory(getattr(model, name), getattr(model, o)) for o in PARAM_GROUPS[i + 1 :])
    # every way to get a model gives it that one layout
    initialized = Model.initialize(SCICLAIM, enc, max_span_len=3, width_dim=2, seed=5)
    for other in (model, model.copy(), load_model(path), initialized):
        assert_tiles_flat(other.params)
        assert all(getattr(other, name) is other.params[name] for name in PARAM_GROUPS)
        assert other.params.shapes == initialized.params.shapes


def assert_tiles_flat(params):
    """Each group is a view of params.flat, back to back in PARAM_GROUPS order."""
    flat = params.flat
    assert isinstance(params, Params) and list(params) == list(PARAM_GROUPS)
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
    start = 0
    for name, group in params.items():
        assert group.base is (flat if flat.base is None else flat.base), name
        assert group.flags.c_contiguous and group.ctypes.data == flat.ctypes.data + start * flat.itemsize, name
        start += group.size
    assert start == flat.size


def test_gradients_have_the_model_layout():
    model, ex = tiny_model(), tiny_example()
    negatives = sample_negatives(ex, 4, 2, model.max_span_len, seed=1)
    _, grads = training.example_loss_and_grads(model, ex, negatives)
    assert_tiles_flat(grads)
    assert grads.shapes == model.params.shapes
    assert not np.shares_memory(grads.flat, model.params.flat)
    assert np.any(grads.flat)


def test_deepcopy_and_pickle_keep_the_one_buffer():
    # a dict's own reduce restored each group as an array of its own, so a
    # write to the copy's flat no longer reached its groups
    enc = EncoderConfig(dimension=8, seed=0, context_window=1)
    cfg = TrainConfig(epochs=2, max_span_len=3, seed=5, neg_entity_count=4, neg_relation_count=2)
    model = train(build_corpus()[:3], SCICLAIM, cfg, encoder_config=enc, width_dim=2)
    before = model.params.flat.tobytes()
    for other in (
        copy.deepcopy(model),
        pickle.loads(pickle.dumps(model)),
        pickle.loads(pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)),
    ):
        assert_tiles_flat(other.params)
        assert other.params.shapes == model.params.shapes
        assert other.params.flat.tobytes() == before
        assert not any(np.shares_memory(other.params.flat, group) for group in model.params.values())
        other.params.flat[:] = 7.0
        assert all(np.all(getattr(other, name) == 7.0) for name in PARAM_GROUPS)
        assert model.params.flat.tobytes() == before


@pytest.mark.parametrize("name, value", [("ent_b", "ones"), ("extra", "ones"), ("ent_b", "ent_w")])
def test_params_refuse_to_rebind_or_add_a_group(name, value):
    # a rebound group left flat: model.copy() and every training step lost it
    model = tiny_model()
    before = model.params.flat.tobytes()
    value = np.ones(3) if value == "ones" else model.params[value]
    with pytest.raises(InputError, match=re.escape(f"cannot rebind or add parameter group {name!r}:")):
        model.params[name] = value
    assert_tiles_flat(model.params)
    assert model.params.flat.tobytes() == before
    model.params["ent_b"] += 1.0  # adds in place and stores the same view back
    assert_tiles_flat(model.params)
    assert np.array_equal(model.copy().ent_b, model.ent_b) and model.params.flat.tobytes() != before


def test_params_have_no_way_to_remove_a_group():
    params = tiny_model().params
    for method in ("update", "setdefault", "pop", "popitem", "clear", "__ior__", "__delitem__"):
        assert not hasattr(params, method), method
    with pytest.raises(AttributeError):
        del params["ent_b"]
    assert_tiles_flat(params)


def test_train_and_grad_check_never_store_a_group(monkeypatch):
    stored = []
    monkeypatch.setattr(Params, "__setitem__", lambda params, name, value: stored.append(name))
    enc = EncoderConfig(dimension=8, seed=0, context_window=1)
    cfg = TrainConfig(epochs=2, max_span_len=3, seed=5, neg_entity_count=4, neg_relation_count=2)
    train(build_corpus()[:3], SCICLAIM, cfg, encoder_config=enc, width_dim=2)
    grad_check(tiny_model(seed=1), tiny_example())
    assert stored == []


def test_train_builds_one_gradient_buffer_for_all_epochs(monkeypatch):
    # each step writes its gradient into the one Params that train makes
    built = []

    class Counted(Params):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(training, "Params", Counted)
    enc = EncoderConfig(dimension=8, seed=0, context_window=1)
    for epochs, batch_size in ((1, 1), (4, 1), (1, 2), (4, 2)):
        built.clear()
        cfg = TrainConfig(epochs=epochs, batch_size=batch_size, max_span_len=3,
                          neg_entity_count=4, neg_relation_count=2)
        model = train(build_corpus()[:3], SCICLAIM, cfg, encoder_config=enc, width_dim=2)
        assert built == [model.params.shapes], (epochs, batch_size)


def test_gradients_into_an_out_of_another_layout_are_refused_before_any_work(monkeypatch):
    model, ex = tiny_model(), tiny_example()
    negatives = sample_negatives(ex, 4, 2, model.max_span_len, seed=1)
    encoded = []
    monkeypatch.setattr(training, "encode_tokens", lambda tokens, config: encoded.append(tokens))
    other = Model.initialize(SCICLAIM, EncoderConfig(dimension=8), max_span_len=2, width_dim=2).params
    for out in (other, dict(model.params), model.params.flat.copy(), model.params):
        kept = out.flat.tobytes() if isinstance(out, Params) else None
        with pytest.raises(InputError, match="^out must"):
            training.example_loss_and_grads(model, ex, negatives, out=out)
        if kept is not None:
            assert out.flat.tobytes() == kept
    assert encoded == []


@pytest.mark.parametrize("width_dim, seed, message", [
    (2.5, 0, "width_dim must be an integer"),
    (np.int64(2), 0, "width_dim must be an integer"),  # trained, the model file could not hold it
    (2, -1, "seed must be >= 0"),
])
def test_train_reads_width_dim_and_seed_as_integers(width_dim, seed, message):
    cfg = TrainConfig(epochs=1, max_span_len=3, seed=seed, neg_entity_count=4, neg_relation_count=2)
    with pytest.raises(InputError, match=message):
        train([tiny_example()], SCICLAIM, cfg, EncoderConfig(dimension=8, seed=0, context_window=1), width_dim)


def test_train_calls_negatives_and_gradients_through_the_module(monkeypatch):
    # bench/tracing.py sees training only through these module attributes
    counts = {"sample_negatives": 0, "example_loss_and_grads": 0}
    dataset = build_corpus()[:3]
    enc = EncoderConfig(dimension=8, seed=0, context_window=1)
    cfg = TrainConfig(epochs=2, max_span_len=3, seed=5, neg_entity_count=4, neg_relation_count=2)
    unpatched = train(dataset, SCICLAIM, cfg, encoder_config=enc, width_dim=2)

    def counting(name):
        original = getattr(training, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in counts:
        monkeypatch.setattr(training, name, counting(name))
    model = train(dataset, SCICLAIM, cfg, encoder_config=enc, width_dim=2)
    assert counts == {name: cfg.epochs * len(dataset) for name in counts}
    for name in PARAM_GROUPS:
        assert getattr(model, name).tobytes() == getattr(unpatched, name).tobytes()


def test_attention_bias_terms_add_in_step_order(monkeypatch):
    # attn_b's gradient adds one term per span, from zero and in the order
    # the step first uses the spans, as the per-span loop did; the true
    # terms are rounding noise, so made-up ones show the order
    ex = tiny_example()
    negatives = Negatives(spans=(Span(3, 5), Span(0, 2), Span(4, 5), Span(2, 3)), pairs=())
    real_backward = training.table_backward
    made_up = {}

    def backward(table, d_pooled):
        d_attn_w, d_attn_b = real_backward(table, d_pooled)
        # rows 0 and 8 are the first and the fourth span the step uses
        d_attn_b = np.ones(len(d_attn_b))
        d_attn_b[[0, 8]] = 1e16, -1e16
        made_up["terms"] = d_attn_b
        return d_attn_w, d_attn_b

    monkeypatch.setattr(training, "table_backward", backward)
    model = tiny_model()
    _, grads = training.example_loss_and_grads(model, ex, negatives)
    offsets = [0, 5, 9, 12]  # rows of the 1-, 2- and 3-token spans of 5 tokens
    spans = [span for span, _ in ex.entities] + list(negatives.spans)
    total = 0.0
    for span in dict.fromkeys(spans):
        total += made_up["terms"][offsets[len(span) - 1] + span.start]
    assert grads["attn_b"] == total
    in_table_order = 0.0
    for row in sorted(offsets[len(span) - 1] + span.start for span in dict.fromkeys(spans)):
        in_table_order += made_up["terms"][row]
    assert total != in_table_order  # the order shows


def test_a_plan_table_owns_its_pooling_arrays_across_steps(monkeypatch):
    # the plan's span table holds the forward arrays from the start and makes
    # the backward ones on its first backward call; every later step writes
    # into the same arrays and gets the gradient a fresh plan gives
    model, ex = tiny_model(seed=2), tiny_example()
    negatives = sample_negatives(ex, 6, 2, model.max_span_len, seed=3)
    encoding = encode_tokens(ex.tokens, model.encoder)
    plan = training._plan(model.schema, model.max_span_len, ex).over(encoding.token_vectors)
    table = plan.table
    weights = []
    real_table_reps = training.table_reps

    def table_reps(*args):
        alpha, reps = real_table_reps(*args)
        weights.append(alpha)
        return alpha, reps

    monkeypatch.setattr(training, "table_reps", table_reps)
    assert "backward_arrays" not in vars(table)
    _, fresh = training.example_loss_and_grads(model, ex, negatives, encoding)
    backward = []
    for _ in range(2):
        _, grads = training.example_loss_and_grads(model, ex, negatives, encoding, plan=plan)
        assert grads.flat.tobytes() == fresh.flat.tobytes()
        assert plan.table is table and weights[-1] is table.alpha
        backward.append(vars(table)["backward_arrays"])
    assert backward[0] is backward[1]


def test_train_loss_non_increasing_small_lr():
    # averaged over 5 seeds, lr=1e-3 must descend monotonically
    dataset = build_corpus()[:5]
    enc = EncoderConfig(dimension=8, seed=0, context_window=1)
    trajectories = []
    for seed in range(5):
        losses = []
        cfg = TrainConfig(epochs=15, learning_rate=1e-3, max_span_len=3, seed=seed,
                          neg_entity_count=10, neg_relation_count=5)
        train(dataset, SCICLAIM, cfg, encoder_config=enc, width_dim=2,
              on_epoch=lambda _, loss: losses.append(loss))
        trajectories.append(losses)
    mean = np.mean(trajectories, axis=0)
    assert np.all(np.diff(mean) <= 1e-12)


def test_train_rejects_schema_mismatch():
    bad = Example(
        tokens=("a",), lemmas=("a",),
        entities=((Span(0, 1), "martian"),), attributes=(), relations=(),
        provenance="bad",
    )
    with pytest.raises(SchemaMismatchError):
        train([bad], SCICLAIM, TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train([], SCICLAIM, TrainConfig(epochs=1))


def corpus_example(**changes):
    """build_corpus()[0] (3 tokens, spans [0,1) [1,2) [2,3)) with fields replaced."""
    return replace(build_corpus()[0], **changes)


@pytest.mark.parametrize("example, error, message", [
    # each of these used to train on clipped or wrapped-around rows, or to
    # fail with a bare IndexError
    (corpus_example(entities=((Span(0, 1), "factor"), (Span(2, 4), "factor"))), GraphError, "beyond 3 tokens"),
    (corpus_example(attributes=((-1, "causation"),)), DanglingReferenceError, "'e-1'"),
    (corpus_example(relations=((1, -1, "arg0"),)), DanglingReferenceError, "'e-1'"),
    (corpus_example(relations=((1, 5, "arg0"),)), DanglingReferenceError, "'e5'"),
    (corpus_example(relations=((0, 0, "q+"),)), SelfLoopError, "self-loop"),
    (corpus_example(entities=((Span(0, 3), "factor"),), attributes=(), relations=()), GraphError, "max_span_len 2"),
])
def test_train_rejects_invalid_gold_data(monkeypatch, example, error, message):
    # the whole dataset is checked before any example is encoded
    encoded = []
    monkeypatch.setattr(training, "encode_tokens", lambda tokens, config: encoded.append(tokens))
    config = TrainConfig(epochs=1, max_span_len=2)
    with pytest.raises(error, match=f"^up0: .*{message}"):
        train([build_corpus()[1], example], SCICLAIM, config,
              encoder_config=EncoderConfig(dimension=8, seed=0, context_window=1))
    assert encoded == []


def test_train_plans_each_example_once(monkeypatch):
    # check_dataset's plans are the ones train completes with the token vectors
    planned = []
    plan = training._plan
    monkeypatch.setattr(training, "_plan", lambda *args: planned.append(args[2]) or plan(*args))
    dataset = build_corpus()[:3]
    cfg = TrainConfig(epochs=2, max_span_len=3, seed=5, neg_entity_count=4, neg_relation_count=2)
    train(dataset, SCICLAIM, cfg, encoder_config=EncoderConfig(dimension=8, seed=0, context_window=1), width_dim=2)
    assert planned == dataset


NO_NEGATIVES = Negatives((), ())


@pytest.mark.parametrize("changes, negatives, error, message", [
    # each of these used to return a finite loss on a wrapped-around or
    # clipped row, or to fail with a bare IndexError or KeyError
    ({"relations": ((0, -1, "arg0"),)}, NO_NEGATIVES, DanglingReferenceError,
     "pair (0, -1) names an entity index outside 3 entities"),
    ({"relations": ((0, 5, "arg0"),)}, NO_NEGATIVES, DanglingReferenceError, "pair (0, 5)"),
    ({"attributes": ((-1, "causation"),)}, NO_NEGATIVES, DanglingReferenceError,
     "attribute on entity index -1, outside 3 entities"),
    ({"attributes": ((3, "causation"),)}, NO_NEGATIVES, DanglingReferenceError, "entity index 3,"),
    ({}, Negatives((), ((0, 1), (-1, 2))), DanglingReferenceError, "pair (-1, 2)"),
    ({}, Negatives((), ((2, 3),)), DanglingReferenceError, "pair (2, 3)"),
    # a pair that joins an entity to itself used to train as any other
    ({"relations": ((0, 0, "q+"),)}, NO_NEGATIVES, SelfLoopError, "pair (0, 0) joins an entity to itself"),
    ({}, Negatives((), ((1, 1),)), SelfLoopError, "pair (1, 1) joins an entity to itself"),
    ({"entities": ((Span(0, 1), "factor"), (Span(2, 9), "factor")), "attributes": (), "relations": ()},
     NO_NEGATIVES, GraphError, "span [2, 9) beyond 5 tokens"),
    ({"entities": ((Span(0, 4), "factor"),), "attributes": (), "relations": ()},
     NO_NEGATIVES, GraphError, "span [0, 4) longer than max_span_len 3"),
    ({}, Negatives((Span(3, 6),), ()), GraphError, "span [3, 6) beyond 5 tokens"),
    ({}, Negatives((Span(1, 5),), ()), GraphError, "span [1, 5) longer than max_span_len 3"),
    ({"entities": ((Span(0, 1), "martian"), (Span(1, 2), "association"), (Span(2, 3), "factor"))},
     NO_NEGATIVES, SchemaMismatchError, "entity type 'martian' not in schema 'sciclaim'"),
    # "factor" is an entity type, not an attribute or a relation type
    ({"attributes": ((1, "factor"),)}, NO_NEGATIVES, SchemaMismatchError, "attribute type 'factor'"),
    ({"relations": ((1, 0, "factor"),)}, NO_NEGATIVES, SchemaMismatchError, "relation type 'factor'"),
])
@pytest.mark.parametrize("entry", ["example_loss", "example_loss_and_grads", "grad_check"])
def test_loss_entry_points_reject_what_check_dataset_rejects(entry, changes, negatives, error, message):
    example = replace(tiny_example(), **changes)
    with pytest.raises(error, match="^tiny: .*" + re.escape(message)):
        if entry == "grad_check":
            grad_check(tiny_model(), example, negatives=negatives)
        else:
            getattr(training, entry)(tiny_model(), example, negatives)


@pytest.mark.parametrize("encoded", [6, 1])
@pytest.mark.parametrize("entry", ["example_loss", "example_loss_and_grads", "grad_check"])
def test_loss_entry_points_reject_a_misaligned_encoding(monkeypatch, entry, encoded):
    # a longer encoding used to give a loss, a 1-token one numpy's bare ValueError
    example = build_corpus()[0]
    model = tiny_model()
    encoding = encode_tokens(example.tokens[:1] * encoded, model.encoder)
    with pytest.raises(AlignmentError, match=f"^up0: an encoding of {encoded} tokens for an example of 3 tokens$"):
        if entry == "grad_check":
            monkeypatch.setattr(training, "encode_tokens", lambda tokens, config: encoding)
            grad_check(model, example)
        else:
            getattr(training, entry)(model, example, NO_NEGATIVES, encoding)


def test_example_loss_finite_and_positive():
    m = tiny_model(seed=3)
    ex = tiny_example()
    neg = sample_negatives(ex, 10, 5, m.max_span_len, seed=0)
    lb = example_loss(m, ex, neg)
    assert math.isfinite(lb.total)
    assert lb.entity > 0 and lb.relation > 0 and lb.attribute > 0
