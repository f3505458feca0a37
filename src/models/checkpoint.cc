#include "models/checkpoint.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "common/check.h"

namespace ls2::models {

namespace {

constexpr uint32_t kMagic = 0x4c533243;  // "LS2C"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

void write_u32(std::FILE* f, uint32_t v) {
  LS2_CHECK_EQ(std::fwrite(&v, sizeof(v), 1, f), 1u);
}
void write_i64(std::FILE* f, int64_t v) {
  LS2_CHECK_EQ(std::fwrite(&v, sizeof(v), 1, f), 1u);
}
uint32_t read_u32(std::FILE* f) {
  uint32_t v = 0;
  LS2_CHECK_EQ(std::fread(&v, sizeof(v), 1, f), 1u) << "truncated checkpoint";
  return v;
}
int64_t read_i64(std::FILE* f) {
  int64_t v = 0;
  LS2_CHECK_EQ(std::fread(&v, sizeof(v), 1, f), 1u) << "truncated checkpoint";
  return v;
}

}  // namespace

void save_checkpoint(const layers::ParamRegistry& params, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  LS2_CHECK(f != nullptr) << "cannot open '" << path << "' for writing";
  write_u32(f.get(), kMagic);
  write_u32(f.get(), static_cast<uint32_t>(params.size()));
  params.for_each([&](const std::string& name, Tensor value, Tensor) {
    write_u32(f.get(), static_cast<uint32_t>(name.size()));
    LS2_CHECK_EQ(std::fwrite(name.data(), 1, name.size(), f.get()), name.size());
    const auto& dims = value.shape().dims();
    write_u32(f.get(), static_cast<uint32_t>(dims.size()));
    for (int64_t d : dims) write_i64(f.get(), d);
    const std::vector<float> data = value.to_vector();
    LS2_CHECK_EQ(std::fwrite(data.data(), sizeof(float), data.size(), f.get()), data.size());
  });
}

void load_checkpoint(layers::ParamRegistry& params, const std::string& path,
                     bool allow_extra) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  LS2_CHECK(f != nullptr) << "cannot open '" << path << "'";
  LS2_CHECK_EQ(read_u32(f.get()), kMagic) << "not an LS2 checkpoint";
  const uint32_t count = read_u32(f.get());

  std::map<std::string, int> by_name;
  for (int i = 0; i < params.size(); ++i) by_name[params.name({i})] = i;
  std::vector<bool> seen(static_cast<size_t>(params.size()), false);

  for (uint32_t e = 0; e < count; ++e) {
    const uint32_t name_len = read_u32(f.get());
    std::string name(name_len, '\0');
    LS2_CHECK_EQ(std::fread(name.data(), 1, name_len, f.get()), name_len);
    const uint32_t rank = read_u32(f.get());
    std::vector<int64_t> dims(rank);
    int64_t numel = 1;
    for (uint32_t d = 0; d < rank; ++d) {
      dims[d] = read_i64(f.get());
      numel *= dims[d];
    }
    std::vector<float> data(static_cast<size_t>(numel));
    LS2_CHECK_EQ(std::fread(data.data(), sizeof(float), data.size(), f.get()), data.size());

    auto it = by_name.find(name);
    if (it == by_name.end()) {
      LS2_CHECK(allow_extra) << "checkpoint entry '" << name << "' has no matching parameter";
      continue;
    }
    layers::ParamRef ref{it->second};
    LS2_CHECK(params.shape(ref) == Shape(dims))
        << "shape mismatch for '" << name << "': file " << Shape(dims).str() << " vs model "
        << params.shape(ref).str();
    params.value(ref).copy_from(data);
    seen[static_cast<size_t>(it->second)] = true;
  }
  for (int i = 0; i < params.size(); ++i) {
    LS2_CHECK(seen[static_cast<size_t>(i)])
        << "parameter '" << params.name({i}) << "' missing from checkpoint";
  }
}

}  // namespace ls2::models
