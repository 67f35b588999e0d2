// ClassRegistry: the system-wide catalogue of shared-object classes.
//
// Class definitions are immutable after registration and replicated to every
// node (schemas are code; in the paper the compiler's output is part of the
// program text at each site), so the registry is shared read-only and no
// schema traffic is charged to the network.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "method/class_def.hpp"

namespace lotec {

class ClassRegistry {
 public:
  /// Register a class built from `builder`; returns its id.
  ClassId register_class(const ClassBuilder& builder) {
    const ClassId id(static_cast<std::uint32_t>(classes_.size()));
    auto cls = std::make_unique<ClassDef>(builder.build(id));
    if (by_name_.count(cls->name()))
      throw UsageError("ClassRegistry: duplicate class name '" + cls->name() +
                       "'");
    by_name_[cls->name()] = id;
    classes_.push_back(std::move(cls));
    return id;
  }

  [[nodiscard]] const ClassDef& get(ClassId id) const {
    if (!id.valid() || id.value() >= classes_.size())
      throw UsageError("ClassRegistry: class id out of range");
    return *classes_[id.value()];
  }

  [[nodiscard]] ClassId find(const std::string& name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end())
      throw UsageError("ClassRegistry: no class named '" + name + "'");
    return it->second;
  }

  [[nodiscard]] std::size_t size() const {
    return classes_.size();
  }

 private:
  std::vector<std::unique_ptr<ClassDef>> classes_;
  std::unordered_map<std::string, ClassId> by_name_;
};

}  // namespace lotec
