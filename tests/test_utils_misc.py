"""Tests for utilities, errors, IDX loading, and the public API surface."""

import gzip
import json
import logging
import struct
import sys

import numpy as np
import pytest

import repro
from repro.data.idx import (
    load_mnist,
    mnist_available,
    read_idx_images,
    read_idx_labels,
)
from repro.errors import (
    ConfigurationError,
    DataError,
    NotFittedError,
    ReproError,
    SerializationError,
    ShapeError,
)
from repro.nn.compute import compute_policy
from repro.utils.logging import (
    JsonLogFormatter,
    enable_console_logging,
    get_logger,
)
from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.tables import AsciiBarChart, AsciiTable, format_float
from repro.utils.validation import (
    check_fraction,
    check_positive_int,
    check_probability_rows,
)


class TestErrors:
    def test_hierarchy(self):
        for exc in (ShapeError, ConfigurationError, DataError, SerializationError):
            assert issubclass(exc, ReproError)
        assert issubclass(ShapeError, ValueError)
        assert issubclass(NotFittedError, RuntimeError)


class TestRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_seed_deterministic(self):
        assert ensure_rng(42).random() == ensure_rng(42).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen

    def test_bad_type_raises(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_independent(self):
        children = spawn_rngs(0, 3)
        values = [c.random() for c in children]
        assert len(set(values)) == 3

    def test_spawn_deterministic(self):
        a = [g.random() for g in spawn_rngs(7, 2)]
        b = [g.random() for g in spawn_rngs(7, 2)]
        assert a == b

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestValidation:
    def test_positive_int(self):
        assert check_positive_int(3, "x") == 3
        with pytest.raises(ConfigurationError):
            check_positive_int(0, "x")
        with pytest.raises(ConfigurationError):
            check_positive_int(2.5, "x")
        with pytest.raises(ConfigurationError):
            check_positive_int(True, "x")

    def test_fraction(self):
        assert check_fraction(0.5, "x") == 0.5
        assert check_fraction(0.0, "x") == 0.0
        with pytest.raises(ConfigurationError):
            check_fraction(1.5, "x")
        with pytest.raises(ConfigurationError):
            check_fraction(0.0, "x", inclusive=False)
        with pytest.raises(ConfigurationError):
            check_fraction(float("nan"), "x")

    def test_probability_rows(self):
        good = np.array([[0.5, 0.5], [1.0, 0.0]])
        np.testing.assert_array_equal(check_probability_rows(good), good)
        with pytest.raises(ConfigurationError):
            check_probability_rows(np.array([[0.5, 0.6]]))
        with pytest.raises(ConfigurationError):
            check_probability_rows(np.array([0.5, 0.5]))


class TestTables:
    def test_format_float(self):
        assert format_float(2.0) == "2"
        assert format_float(1.912) == "1.912"
        assert format_float(float("nan")) == "nan"

    def test_table_alignment(self):
        table = AsciiTable(["name", "value"], title="t")
        table.add_row(["a", 1.5])
        table.add_row(["long-name", 100])
        text = table.render()
        lines = text.splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all box lines equal width

    def test_table_wrong_arity_raises(self):
        table = AsciiTable(["a"])
        with pytest.raises(ValueError):
            table.add_row([1, 2])

    def test_empty_headers_raise(self):
        with pytest.raises(ValueError):
            AsciiTable([])

    def test_bar_chart_scales_to_peak(self):
        chart = AsciiBarChart(width=10)
        chart.add_bar("a", 1.0)
        chart.add_bar("b", 2.0)
        lines = chart.render().splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_bar_chart_rejects_negative(self):
        chart = AsciiBarChart()
        with pytest.raises(ValueError):
            chart.add_bar("x", -1.0)

    def test_empty_chart(self):
        assert AsciiBarChart("title").render() == "title"


def _write_idx(tmp_path, images, labels, gz=False):
    img_path = tmp_path / ("imgs.gz" if gz else "imgs")
    lbl_path = tmp_path / ("lbls.gz" if gz else "lbls")
    n, h, w = images.shape
    img_bytes = struct.pack(">IIII", 2051, n, h, w) + images.tobytes()
    lbl_bytes = struct.pack(">II", 2049, n) + labels.tobytes()
    opener = gzip.open if gz else open
    with opener(img_path, "wb") as fh:
        fh.write(img_bytes)
    with opener(lbl_path, "wb") as fh:
        fh.write(lbl_bytes)
    return img_path, lbl_path


class TestIdx:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (5, 4, 4), dtype=np.uint8)
        labels = rng.integers(0, 10, 5, dtype=np.uint8)
        img_path, lbl_path = _write_idx(tmp_path, images, labels)
        loaded_images = read_idx_images(img_path)
        loaded_labels = read_idx_labels(lbl_path)
        np.testing.assert_allclose(loaded_images, images / 255.0)
        np.testing.assert_array_equal(loaded_labels, labels)

    def test_images_read_in_the_compute_dtype(self, tmp_path):
        images = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        img_path, _ = _write_idx(tmp_path, images, np.zeros(4, dtype=np.uint8))
        with compute_policy("float32"):
            loaded = read_idx_images(img_path)
        assert loaded.dtype == np.float32
        np.testing.assert_array_equal(loaded, (images / 255.0).astype(np.float32))

    def test_gzip_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (3, 2, 2), dtype=np.uint8)
        labels = rng.integers(0, 10, 3, dtype=np.uint8)
        img_path, lbl_path = _write_idx(tmp_path, images, labels, gz=True)
        assert read_idx_images(img_path).shape == (3, 2, 2)
        assert read_idx_labels(lbl_path).shape == (3,)

    def test_wrong_magic_raises(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 1234, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(DataError):
            read_idx_images(path)

    def test_truncated_raises(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">IIII", 2051, 10, 28, 28))
        with pytest.raises(DataError):
            read_idx_images(path)

    def test_mnist_available_false_on_empty_dir(self, tmp_path):
        assert not mnist_available(tmp_path)

    def test_load_mnist_missing_raises(self, tmp_path):
        with pytest.raises(DataError):
            load_mnist(tmp_path)

    def test_load_mnist_full_layout(self, tmp_path):
        rng = np.random.default_rng(2)
        for stem_img, stem_lbl, n in (
            ("train-images-idx3-ubyte", "train-labels-idx1-ubyte", 6),
            ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte", 4),
        ):
            images = rng.integers(0, 256, (n, 28, 28), dtype=np.uint8)
            labels = rng.integers(0, 10, n, dtype=np.uint8)
            (tmp_path / stem_img).write_bytes(
                struct.pack(">IIII", 2051, n, 28, 28) + images.tobytes()
            )
            (tmp_path / stem_lbl).write_bytes(
                struct.pack(">II", 2049, n) + labels.tobytes()
            )
        assert mnist_available(tmp_path)
        train, test = load_mnist(tmp_path)
        assert len(train) == 6 and len(test) == 4
        assert train.image_shape == (1, 28, 28)
        assert np.isnan(train.difficulty).all()


class TestPublicApi:
    def test_version(self):
        assert repro.__version__
        assert "DATE 2016" in repro.PAPER

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_entry_points(self):
        assert callable(repro.train_cdln)
        assert callable(repro.evaluate_cdln)
        assert callable(repro.make_dataset_pair)


class TestLogging:
    """``enable_console_logging`` idempotency is keyed on the attached
    *formatter*, so repeated calls never double-log and switching formats
    swaps the console handler instead of stacking a second one."""

    @pytest.fixture(autouse=True)
    def _clean_handlers(self):
        logger = get_logger()
        before = list(logger.handlers)
        yield
        for handler in list(logger.handlers):
            if handler not in before:
                logger.removeHandler(handler)

    def test_text_idempotent(self):
        logger = get_logger()
        start = len(logger.handlers)
        enable_console_logging()
        enable_console_logging()
        assert len(logger.handlers) == start + 1

    def test_format_switch_replaces_handler(self):
        logger = get_logger()
        start = len(logger.handlers)
        enable_console_logging(fmt="text")
        enable_console_logging(fmt="json")
        assert len(logger.handlers) == start + 1
        ours = [
            h for h in logger.handlers
            if isinstance(h.formatter, JsonLogFormatter)
        ]
        assert len(ours) == 1
        enable_console_logging(fmt="json")  # and json is idempotent too
        assert len(logger.handlers) == start + 1

    def test_application_handlers_untouched(self):
        logger = get_logger()
        app = logging.StreamHandler()
        app.setFormatter(logging.Formatter("%(message)s"))
        logger.addHandler(app)
        enable_console_logging(fmt="text")
        enable_console_logging(fmt="json")
        assert app in logger.handlers

    def test_json_formatter_output_parses(self):
        record = logging.LogRecord(
            name="repro.test", level=logging.WARNING, pathname=__file__,
            lineno=1, msg="drift score %.2f", args=(0.25,), exc_info=None,
        )
        payload = json.loads(JsonLogFormatter().format(record))
        assert payload["level"] == "WARNING"
        assert payload["logger"] == "repro.test"
        assert payload["message"] == "drift score 0.25"
        assert payload["time_unix"] == pytest.approx(record.created)

    def test_json_formatter_includes_exc_info(self):
        try:
            raise ValueError("boom")
        except ValueError:
            record = logging.LogRecord(
                name="repro", level=logging.ERROR, pathname=__file__,
                lineno=1, msg="failed", args=(), exc_info=sys.exc_info(),
            )
        payload = json.loads(JsonLogFormatter().format(record))
        assert "ValueError: boom" in payload["exc_info"]

    def test_invalid_format_rejected(self):
        with pytest.raises(ConfigurationError):
            enable_console_logging(fmt="yaml")

    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("serving").name == "repro.serving"
