#include "runtime/registry.hpp"

#include <cxxabi.h>

#include <cstdlib>
#include <stdexcept>

#include "runtime/chare.hpp"

namespace charm {

Registry& Registry::instance() {
  static Registry r;
  return r;
}

ChareTypeId Registry::add_type(ChareTypeInfo info) {
  types_.push_back(info);
  return static_cast<ChareTypeId>(types_.size() - 1);
}

EntryId Registry::add_entry(EntryInfo info) {
  entries_.push_back(info);
  return static_cast<EntryId>(entries_.size() - 1);
}

CreatorId Registry::add_creator(CreatorInfo info) {
  creators_.push_back(info);
  return static_cast<CreatorId>(creators_.size() - 1);
}

std::unique_ptr<ArrayElementBase> Registry::unpack_element(
    ChareTypeId id, const std::vector<std::byte>& bytes) const {
  const ChareTypeInfo& info = type(id);
  if (info.create_default == nullptr) {
    int status = 0;
    char* demangled = abi::__cxa_demangle(info.name, nullptr, nullptr, &status);
    const std::string name = status == 0 ? demangled : info.name;
    std::free(demangled);
    throw std::logic_error("chare type " + name +
                           " has no default constructor, so its elements cannot be "
                           "migrated or restored from a checkpoint");
  }
  std::unique_ptr<ArrayElementBase> obj(info.create_default());
  pup::Unpacker u(bytes);
  obj->pup(u);
  return obj;
}

const std::string& Registry::entry_name(EntryId id) const {
  static const std::string empty;
  const auto i = static_cast<std::size_t>(id);
  return i < entry_names_.size() ? entry_names_[i] : empty;
}

void Registry::set_entry_name(EntryId id, std::string name) {
  const auto i = static_cast<std::size_t>(id);
  if (entry_names_.size() <= i) entry_names_.resize(i + 1);
  entry_names_[i] = std::move(name);
}

}  // namespace charm
