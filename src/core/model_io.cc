#include "core/model_io.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/durable_io.h"
#include "common/fault.h"
#include "common/parse.h"

namespace galign {

namespace {

const char* ActivationName(Activation a) {
  switch (a) {
    case Activation::kTanh:
      return "tanh";
    case Activation::kRelu:
      return "relu";
    case Activation::kLinear:
      return "linear";
  }
  return "tanh";
}

Result<Activation> ParseActivation(const std::string& name) {
  if (name == "tanh") return Activation::kTanh;
  if (name == "relu") return Activation::kRelu;
  if (name == "linear") return Activation::kLinear;
  return Status::IOError("unknown activation: " + QuoteToken(name));
}

}  // namespace

void EmitMatrixList(std::string* out, const char* key,
                    const std::vector<Matrix>& ms) {
  *out += key;
  *out += ' ';
  *out += std::to_string(ms.size());
  *out += '\n';
  for (const Matrix& m : ms) {
    *out += std::to_string(m.rows());
    *out += ' ';
    *out += std::to_string(m.cols());
    *out += '\n';
    AppendHexDoubles(out, m.data(), static_cast<size_t>(m.size()), 8);
  }
}

size_t MatrixListBytes(const std::vector<Matrix>& ms) {
  // Header lines hold a key and at most three 20-digit integers.
  size_t bytes = 96;
  for (const Matrix& m : ms) bytes += 48 + 17 * static_cast<size_t>(m.size());
  return bytes;
}

Status ParseMatrixList(TextCursor* in, const char* key,
                       std::vector<Matrix>* out, const std::string& context) {
  int64_t count = -1;
  if (!in->Expect(key) || !in->Int64(&count) || count < 0 || count > 4096) {
    return Status::IOError("expected '" + std::string(key) +
                           " <count>' in " + context);
  }
  out->clear();
  out->reserve(static_cast<size_t>(count));
  for (int64_t k = 0; k < count; ++k) {
    int64_t rows = -1, cols = -1;
    // Shape caps bound the allocation a corrupt header could request
    // before any payload validation runs.
    if (!in->Int64(&rows) || !in->Int64(&cols) || rows < 0 || cols < 0 ||
        rows > (int64_t{1} << 30) || cols > (int64_t{1} << 30) ||
        rows * cols > (int64_t{1} << 32)) {
      return Status::IOError("bad matrix shape under '" + std::string(key) +
                             "' in " + context);
    }
    // Each value is a 16-digit token, so the payload bounds the shape too.
    if (!in->Fits(static_cast<uint64_t>(rows * cols), 16)) {
      return Status::IOError(
          "matrix " + std::to_string(k) + " under '" + std::string(key) +
          "' declares " + std::to_string(rows) + "x" + std::to_string(cols) +
          " values but only " + std::to_string(in->remaining()) +
          " bytes remain in " + context);
    }
    Matrix& m = out->emplace_back(rows, cols);
    GALIGN_RETURN_NOT_OK(in->HexDoubles(
        m.data(), static_cast<size_t>(m.size()),
        "matrix under '" + std::string(key) + "'", context));
  }
  return Status::OK();
}

std::string SerializeGcnModel(const MultiOrderGcn& gcn) {
  std::ostringstream out;
  out.precision(17);
  out << "galign-gcn-v1 layers=" << gcn.num_layers()
      << " input_dim=" << gcn.input_dim()
      << " embedding_dim=" << gcn.embedding_dim() << " activation="
      << ActivationName(gcn.activation()) << "\n";
  for (const Matrix& w : gcn.weights()) {
    out << w.rows() << " " << w.cols() << "\n";
    for (int64_t r = 0; r < w.rows(); ++r) {
      for (int64_t c = 0; c < w.cols(); ++c) {
        if (c) out << " ";
        out << w(r, c);
      }
      out << "\n";
    }
  }
  return out.str();
}

Status SaveGcnModel(const MultiOrderGcn& gcn, const std::string& path) {
  // CRC trailer + temp-and-rename: a crash mid-save leaves either the old
  // model or nothing, never a torn file that LoadGcnModel would half-parse.
  return AtomicWriteFile(path, AppendCrc32Trailer(SerializeGcnModel(gcn)));
}

Result<MultiOrderGcn> LoadGcnModel(const std::string& path) {
  // Transient faults (injected or real EINTR-class hiccups) get a bounded,
  // jittered retry; everything past the raw read is deterministic parsing
  // that retrying could never fix.
  auto content =
      RetryTransientResult(RetryPolicy{}, [&]() -> Result<std::string> {
        if (fault::ShouldFailIO("io.model.load")) {
          return Status::IOError("injected fault: cannot read model file " +
                                 path);
        }
        return ReadFileToString(path);
      });
  GALIGN_RETURN_NOT_OK(content.status());
  // Legacy files predate the trailer, so it is optional; when present it
  // must verify.
  auto payload = StripAndVerifyCrc32Trailer(content.MoveValueOrDie(),
                                            /*require_trailer=*/false, path);
  GALIGN_RETURN_NOT_OK(payload.status());
  return ParseGcnModel(payload.ValueOrDie(), path);
}

Result<MultiOrderGcn> ParseGcnModel(const std::string& payload,
                                    const std::string& context) {
  const std::string& path = context;
  std::istringstream in(payload);
  std::string header;
  if (!std::getline(in, header)) {
    return Status::IOError("empty model file: " + path);
  }
  std::istringstream hs(header);
  std::string magic;
  hs >> magic;
  if (magic != "galign-gcn-v1") {
    return Status::IOError("not a galign model file (bad magic " +
                           QuoteToken(magic) + "): " + path);
  }
  int64_t layers = 0, input_dim = 0, embedding_dim = 0;
  std::string activation_name = "tanh";
  std::string field;
  while (hs >> field) {
    auto eq = field.find('=');
    if (eq == std::string::npos) continue;
    std::string key = field.substr(0, eq);
    std::string value = field.substr(eq + 1);
    if (key == "activation") {
      activation_name = value;
      continue;
    }
    if (key == "layers" || key == "input_dim" || key == "embedding_dim") {
      auto parsed = ParseInt64(value, key.c_str());
      if (!parsed.ok()) {
        return Status::IOError("bad model header in " + path + ": " +
                               parsed.status().message());
      }
      if (key == "layers") layers = parsed.ValueOrDie();
      if (key == "input_dim") input_dim = parsed.ValueOrDie();
      if (key == "embedding_dim") embedding_dim = parsed.ValueOrDie();
    }
  }
  // The layer cap guards against allocating absurd amounts of memory off a
  // corrupt header before the per-layer shape checks would catch it.
  if (layers < 1 || layers > 1024 || input_dim < 1 || embedding_dim < 1) {
    return Status::IOError("malformed model header (expected layers in "
                           "[1, 1024] and positive dims) in " +
                           path + ": " + QuoteToken(header));
  }
  // So do the dims: every weight takes at least one byte of what follows
  // the header, so a shape the payload cannot hold is rejected before the
  // model is allocated (the products are checked without overflowing).
  {
    const uint64_t left = payload.size() - std::min(payload.size(),
                                                    header.size() + 1);
    uint64_t budget = left;
    auto take = [&budget](uint64_t rows, uint64_t cols) {
      if (rows > budget / cols) return false;
      budget -= rows * cols;
      return true;
    };
    const uint64_t in_dim = static_cast<uint64_t>(input_dim);
    const uint64_t dim = static_cast<uint64_t>(embedding_dim);
    bool fits = take(in_dim, dim);
    for (int64_t l = 1; l < layers && fits; ++l) fits = take(dim, dim);
    if (!fits) {
      return Status::IOError(
          "model header declares " + std::to_string(layers) +
          " layers of input_dim=" + std::to_string(input_dim) +
          " embedding_dim=" + std::to_string(embedding_dim) +
          ", more weights than the " + std::to_string(left) +
          " bytes after it hold, in " + path);
    }
  }
  auto activation = ParseActivation(activation_name);
  GALIGN_RETURN_NOT_OK(activation.status());

  Rng rng(0);  // weights are overwritten below
  MultiOrderGcn gcn(static_cast<int>(layers), input_dim, embedding_dim, &rng,
                    activation.ValueOrDie());
  for (int64_t l = 0; l < layers; ++l) {
    int64_t rows, cols;
    if (!(in >> rows >> cols)) {
      return Status::IOError("truncated model file (missing shape of layer " +
                             std::to_string(l) + "): " + path);
    }
    Matrix& w = gcn.weights()[l];
    if (rows != w.rows() || cols != w.cols()) {
      return Status::IOError(
          "layer " + std::to_string(l) + " shape mismatch in " + path +
          ": file says " + std::to_string(rows) + "x" + std::to_string(cols) +
          ", header implies " + std::to_string(w.rows()) + "x" +
          std::to_string(w.cols()));
    }
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < cols; ++c) {
        std::string tok;
        if (!(in >> tok)) {
          return Status::IOError("truncated model file (layer " +
                                 std::to_string(l) + ", weight (" +
                                 std::to_string(r) + ", " +
                                 std::to_string(c) + ")): " + path);
        }
        auto v = ParseDouble(tok, "weight");
        if (!v.ok()) {
          return Status::IOError("layer " + std::to_string(l) + ", weight (" +
                                 std::to_string(r) + ", " +
                                 std::to_string(c) + ") in " + path + ": " +
                                 v.status().message());
        }
        if (!std::isfinite(v.ValueOrDie())) {
          return Status::IOError("non-finite weight at layer " +
                                 std::to_string(l) + ", (" +
                                 std::to_string(r) + ", " +
                                 std::to_string(c) + ") in " + path);
        }
        w(r, c) = v.ValueOrDie();
      }
    }
  }
  std::string trailing;
  if (in >> trailing) {
    return Status::IOError("trailing data after last layer (" +
                           QuoteToken(trailing) + " ...) in " + path);
  }
  return gcn;
}

}  // namespace galign
