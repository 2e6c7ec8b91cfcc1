#include "models/checkpoint.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

namespace bslrec {

namespace {

constexpr char kMagic[8] = {'B', 'S', 'L', 'R', 'E', 'C', 'K', '1'};

}  // namespace

bool SaveModelParams(EmbeddingModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "bslrec: cannot write checkpoint '%s'\n",
                 path.c_str());
    return false;
  }
  const std::vector<ParamGrad> params = model.Params();
  out.write(kMagic, sizeof(kMagic));
  const uint64_t count = params.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const ParamGrad& pg : params) {
    const uint64_t rows = pg.value->rows();
    const uint64_t cols = pg.value->cols();
    out.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    out.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    out.write(reinterpret_cast<const char*>(pg.value->data()),
              static_cast<std::streamsize>(rows * cols * sizeof(float)));
  }
  return static_cast<bool>(out);
}

bool LoadModelParams(EmbeddingModel& model, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bslrec: cannot open checkpoint '%s'\n",
                 path.c_str());
    return false;
  }
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    std::fprintf(stderr, "bslrec: '%s' is not a bslrec checkpoint\n",
                 path.c_str());
    return false;
  }
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  const std::vector<ParamGrad> params = model.Params();
  if (!in || count != params.size()) {
    std::fprintf(stderr,
                 "bslrec: checkpoint has %llu tensors, model expects %zu\n",
                 static_cast<unsigned long long>(count), params.size());
    return false;
  }
  // Staged, so that a file rejected anywhere leaves the model untouched.
  std::vector<std::vector<float>> staged(params.size());
  for (size_t p = 0; p < params.size(); ++p) {
    const Matrix& value = *params[p].value;
    uint64_t rows = 0, cols = 0;
    in.read(reinterpret_cast<char*>(&rows), sizeof(rows));
    in.read(reinterpret_cast<char*>(&cols), sizeof(cols));
    if (!in || rows != value.rows() || cols != value.cols()) {
      std::fprintf(stderr, "bslrec: checkpoint tensor shape mismatch\n");
      return false;
    }
    staged[p].resize(value.size());
    in.read(reinterpret_cast<char*>(staged[p].data()),
            static_cast<std::streamsize>(value.size() * sizeof(float)));
    if (!in) {
      std::fprintf(stderr, "bslrec: checkpoint truncated\n");
      return false;
    }
  }
  if (in.peek() != std::ifstream::traits_type::eof()) {
    std::fprintf(stderr, "bslrec: checkpoint has trailing bytes\n");
    return false;
  }
  for (size_t p = 0; p < params.size(); ++p) {
    std::copy(staged[p].begin(), staged[p].end(), params[p].value->data());
  }
  return true;
}

}  // namespace bslrec
